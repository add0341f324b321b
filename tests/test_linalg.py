import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrev import (
    CycMatrix,
    CycRat,
    ONE,
    RHO,
    RHO2,
    ShapeError,
    SingularMatrixError,
    TrivariatePoly,
    ZERO,
    block_compose,
    block_diag,
    block_extract,
    pencil_det,
)
from conftest import invertible

small_cycrats = st.builds(CycRat, st.integers(-3, 3), st.integers(-3, 3))


def square_matrices(n: int):
    row = st.lists(small_cycrats, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(CycMatrix)


def leibniz_det(m: CycMatrix) -> CycRat:
    """Sum over permutations of the signed products of entries."""
    total = ZERO
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = math.prod((m[i, j] for i, j in enumerate(perm)), start=ONE)
        total = total - term if inversions % 2 else total + term
    return total


class TestMultiply:
    def test_identity_neutral(self, rng):
        m = invertible(rng, 4)
        assert CycMatrix.identity(4) @ m == m
        assert m @ CycMatrix.identity(4) == m

    def test_inverse_product(self, rng):
        m = invertible(rng, 3)
        assert m @ m.inverse() == CycMatrix.identity(3)

    def test_hand_expansion(self):
        left = CycMatrix([[1, 2], [3, 4]])
        right = CycMatrix([[5, 6], [7, 8]])
        assert left @ right == CycMatrix([[19, 22], [43, 50]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            CycMatrix.identity(2) @ CycMatrix.identity(3)


class TestInverse:
    def test_identity(self):
        assert CycMatrix.identity(5).inverse() == CycMatrix.identity(5)

    def test_two_by_two_example(self):
        # [[1,1],[a,1]] at a = 2 inverts to 1/(1-2) [[1,-1],[-2,1]]
        m = CycMatrix([[1, 1], [2, 1]])
        assert m.inverse() == CycMatrix([[-1, 1], [2, -1]])

    def test_random_six_by_six(self):
        rng = random.Random(99)
        m = invertible(rng, 6)
        assert m @ m.inverse() == CycMatrix.identity(6)
        assert m.inverse() @ m == CycMatrix.identity(6)

    def test_singular_carries_rank(self):
        with pytest.raises(SingularMatrixError) as err:
            CycMatrix([[1, 1], [1, 1]]).inverse()
        assert "(rank 1)" in str(err.value)

    def test_double_inverse(self, rng):
        m = invertible(rng, 4)
        assert m.inverse().inverse() == m

    def test_inverse_commutes_with_transpose(self, rng):
        m = invertible(rng, 4)
        assert m.transpose().inverse() == m.inverse().transpose()


class TestTranspose:
    def test_identity(self):
        assert CycMatrix.identity(3).transpose() == CycMatrix.identity(3)

    def test_involution(self, rng):
        m = invertible(rng, 5)
        assert m.transpose().transpose() == m

    def test_entries_swap(self):
        t = CycMatrix([[1, 2, 3], [4, 5, 6]]).transpose()
        assert t.shape == (3, 2)
        assert t[0, 1] == CycRat(4) and t[2, 0] == CycRat(3)


class TestRankNullspace:
    def test_zero_matrix(self):
        m = CycMatrix.zeros(3, 3)
        assert m.rank() == 0
        assert len(m.nullspace()) == 3

    def test_identity(self):
        assert CycMatrix.identity(4).rank() == 4
        assert CycMatrix.identity(4).nullspace() == []

    def test_rho_rank_one(self):
        # det [[1, w], [w^2, 1]] = 1 - w^3 = 0, so rank 1
        m = CycMatrix([[ONE, RHO], [RHO2, ONE]])
        assert m.det() == ZERO
        assert m.rank() == 1
        (vec,) = m.nullspace()
        assert (m @ vec).is_zero()

    def test_rank_transpose_invariant(self, rng):
        m = CycMatrix(
            [[CycRat(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        )
        assert m.rank() == m.transpose().rank()

    def test_rank_plus_nullity(self, rng):
        m = CycMatrix(
            [[CycRat(rng.randint(-2, 2)) for _ in range(6)] for _ in range(4)]
        )
        assert m.rank() + len(m.nullspace()) == 6


class TestDeterminant:
    def test_multiplicative(self, rng):
        a = invertible(rng, 3)
        b = invertible(rng, 3)
        assert (a @ b).det() == a.det() * b.det()

    def test_triangular(self):
        m = CycMatrix([[2, 5], [0, 3]])
        assert m.det() == CycRat(6)

    def test_odd_permutation(self):
        # the rows of I_4 cycled by one place: a 4-cycle, which is odd
        m = CycMatrix([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert m.det() == CycRat(-1)

    @given(st.integers(1, 4).flatmap(square_matrices))
    @settings(deadline=None)
    def test_matches_leibniz(self, m):
        assert m.det() == leibniz_det(m)


class TestBlocks:
    def test_single_block(self):
        assert block_compose([[CycMatrix.identity(2)]]) == CycMatrix.identity(2)

    def test_even_family_shape(self):
        ident = CycMatrix.identity(2)
        a = CycMatrix.diagonal([2, 3])
        composed = block_compose([[ident, ident], [a, ident]])
        assert composed == CycMatrix(
            [[1, 0, 1, 0], [0, 1, 0, 1], [2, 0, 1, 0], [0, 3, 0, 1]]
        )
        assert block_extract(composed, (2, 2), (2, 2), 1, 0) == a

    def test_round_trip(self, rng):
        grid = [
            [invertible(rng, 2), CycMatrix.zeros(2, 3)],
            [CycMatrix.zeros(1, 2), CycMatrix([[1, 2, 3]])],
        ]
        composed = block_compose(grid)
        for i in range(2):
            for j in range(2):
                assert block_extract(composed, (2, 1), (2, 3), i, j) == grid[i][j]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            block_compose([[CycMatrix.identity(2), CycMatrix.identity(3)]])

    def test_zero_sized_blocks(self):
        d = block_diag([CycMatrix.identity(2), CycMatrix.zeros(0, 0)])
        assert d == CycMatrix.identity(2)
        assert block_extract(d, (2, 0), (2, 0), 0, 0) == CycMatrix.identity(2)
        assert block_extract(d, (2, 0), (2, 0), 1, 0).shape == (0, 2)

    def test_extract_sizes_must_fit(self):
        for rows, cols in [((1,), (2,)), ((1, 1), (1, 2)), ((2, 1), (2,))]:
            with pytest.raises(ShapeError):
                block_extract(CycMatrix.identity(2), rows, cols, 0, 0)


class TestPencilDet:
    def test_scalar_pencil(self):
        one = CycMatrix.identity(1)
        p = pencil_det(one, one, one)
        assert p == TrivariatePoly(1, {(1, 0, 0): ONE, (0, 1, 0): ONE, (0, 0, 1): ONE})

    def test_x_squared(self):
        p = pencil_det(CycMatrix.identity(2), CycMatrix.zeros(2, 2), CycMatrix.zeros(2, 2))
        assert p == TrivariatePoly.monomial(2, 0, 0)

    def test_two_by_two_leibniz_oracle(self, rng):
        mats = [invertible(rng, 2) for _ in range(3)]
        p, q, r = mats

        def lin(i, j):
            return (p[i, j], q[i, j], r[i, j])

        # (a . v)(d . v) - (b . v)(c . v) for v = (x, y, z), collected by monomial
        a, b, c, d = lin(0, 0), lin(0, 1), lin(1, 0), lin(1, 1)
        coeffs = {}
        for s in range(3):
            for t in range(3):
                key = tuple((v == s) + (v == t) for v in range(3))
                coeffs[key] = coeffs.get(key, ZERO) + a[s] * d[t] - b[s] * c[t]
        assert pencil_det(p, q, r) == TrivariatePoly(2, coeffs)

    def test_evaluation_matches_elimination_det(self, rng):
        mats = [invertible(rng, 3) for _ in range(3)]
        p = pencil_det(*mats)
        assert p.evaluate(ONE, ZERO, ZERO) == mats[0].det()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pencil_det(CycMatrix.identity(2), CycMatrix.identity(3), CycMatrix.identity(2))

    # Points with a nonzero w-component are off the integer lattice on which
    # pencil_det interpolates.
    @given(
        st.integers(1, 4).flatmap(lambda m: st.tuples(*[square_matrices(m)] * 3)),
        st.tuples(*[st.builds(CycRat, st.integers(-3, 3), st.integers(1, 3))] * 3),
    )
    @settings(deadline=None, max_examples=30)
    def test_matches_det_off_lattice(self, mats, point):
        P, Q, R = mats
        x, y, z = point
        pencil = P.scale(x) + Q.scale(y) + R.scale(z)
        assert pencil_det(P, Q, R).evaluate(x, y, z) == pencil.det()


class TestJson:
    def test_round_trip(self, rng):
        m = invertible(rng, 3)
        obj = json.loads(json.dumps(m.to_obj()))
        assert sorted(obj) == ["cols", "entries", "rows"]
        assert CycMatrix.from_obj(obj) == m

    def test_block_keys_ignored(self, rng):
        m = invertible(rng, 3)
        obj = dict(m.to_obj(), row_blocks=[2, 1], col_blocks=[5])
        assert CycMatrix.from_obj(obj) == m

    def test_entry_syntax(self):
        m = CycMatrix([[CycRat(1, -2), ZERO]])
        assert m.to_obj()["entries"] == [["1-2w", "0"]]

    def test_malformed(self):
        with pytest.raises(ValueError):
            CycMatrix.from_obj({"rows": 2, "cols": 2, "entries": [["1", "0"]]})
        with pytest.raises(ValueError):
            CycMatrix.from_obj({"rows": 1, "cols": 1, "entries": [["3.25"]]})
