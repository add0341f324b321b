"""Property tests of the integer-backed CycMatrix and its fraction-free
kernel against a plain Gauss-Jordan elimination over CycRat."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrev import (
    CycMatrix,
    CycRat,
    ONE,
    Rational,
    SingularMatrixError,
    ZERO,
    block_diag,
)
from braidrev import _modp
from braidrev.braid import B3Rep, _burnside_rank_exact, build_rep
from conftest import stable_rep
from test_linalg import leibniz_det

# Entries with denominators, so that the common denominator and the gcd
# normalisation are exercised, and with zeros, so that pivots are skipped.
cycrats = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, c, d: CycRat(Rational(a, b), Rational(c, d)),
              st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 3)),
)


def matrices(rows: int, cols: int):
    return st.lists(st.lists(cycrats, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(CycMatrix)


square = st.integers(1, 5).flatmap(lambda n: matrices(n, n))
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@st.composite
def rank_deficient(draw):
    """An (n x r)(r x m) product, of rank at most r < min(n, m)."""
    n, m = draw(shapes.filter(lambda s: min(s) > 1))
    r = draw(st.integers(1, min(n, m) - 1))
    return draw(matrices(n, r)) @ draw(matrices(r, m))


def reference_rref(rows: list, ncols: int) -> tuple:
    """Gauss-Jordan over CycRat with the first nonzero entry down a column
    as pivot; returns the reduced rows and the pivot columns."""
    work = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * v for v in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                work[i] = [a - f * b for a, b in zip(row, work[r])]
        pivots.append(c)
    return work, pivots


def reference_nullspace(m: CycMatrix) -> list:
    work, pivots = reference_rref(m.entries, m.cols)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][f]
        basis.append(vec)
    return basis


def reference_inverse(m: CycMatrix) -> list | None:
    n = m.rows
    aug = [row + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m.entries)]
    work, pivots = reference_rref(aug, n)
    return [row[n:] for row in work] if len(pivots) == n else None


def column(vec: CycMatrix) -> list:
    return [row[0] for row in vec.entries]


class TestCanonicalForm:
    @given(st.one_of(square, rank_deficient()))
    @settings(deadline=None, max_examples=60)
    def test_fields_are_canonical(self, m):
        ints = [x for part in (m.re, m.rh) for row in part for x in row]
        assert m.den > 0
        assert math.gcd(m.den, *ints) == 1
        for i, row in enumerate(m.entries):
            for j, v in enumerate(row):
                assert v == CycRat(Rational(m.re[i][j], m.den), Rational(m.rh[i][j], m.den))

    @given(square, st.builds(CycRat, st.integers(1, 5), st.integers(0, 3)))
    @settings(deadline=None, max_examples=40)
    def test_equal_values_equal_fields(self, m, c):
        # the same value reached two ways, with different common factors
        other = m.scale(c).scale(c.inverse())
        assert other == m
        assert hash(other) == hash(m)
        assert (other.den, other.re, other.rh) == (m.den, m.re, m.rh)

    def test_unequal_values(self):
        a = CycMatrix([[1, Rational(1, 2)]])
        assert a != CycMatrix([[1, Rational(1, 3)]])
        assert a != CycMatrix([[1], [Rational(1, 2)]])

    def test_zero_canonical(self):
        z = CycMatrix([[0, 0], [0, 0]])
        assert (z.den, z.re, z.rh) == (1, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert z == CycMatrix.zeros(2, 2) == CycMatrix([[1, 2], [3, 4]]).scale(ZERO)
        assert z.is_zero()

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        z = CycMatrix.zeros(rows, cols)
        assert z.shape == (rows, cols) and z.den == 1 and z.is_zero()
        assert z.transpose().shape == (cols, rows)
        assert z == CycMatrix.zeros(rows, cols) and hash(z) == hash(CycMatrix.zeros(rows, cols))
        assert z != CycMatrix.zeros(cols, rows) or rows == cols
        assert (z @ CycMatrix.zeros(cols, 2)).shape == (rows, 2)
        assert z.rank() == 0
        assert len(z.nullspace()) == cols
        if rows == cols:
            assert z.det() == ONE
            assert z.inverse() == z


class TestProduct:
    @given(shapes.flatmap(lambda s: st.tuples(matrices(*s), st.integers(1, 4))).flatmap(
        lambda t: st.tuples(st.just(t[0]), matrices(t[0].cols, t[1]))))
    @settings(deadline=None, max_examples=60)
    def test_matches_entrywise_sums(self, pair):
        a, b = pair
        expected = [[sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
                     for j in range(b.cols)] for i in range(a.rows)]
        assert (a @ b).entries == expected

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n))))
    @settings(deadline=None, max_examples=40)
    def test_trace_of_product(self, pair):
        a, b = pair
        assert a.trace_of_product(b) == (a @ b).trace()


class TestElimination:
    @given(square)
    @settings(deadline=None, max_examples=60)
    def test_inverse(self, m):
        expected = reference_inverse(m)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            return
        inv = m.inverse()
        assert inv.entries == expected
        assert m @ inv == CycMatrix.identity(m.rows)

    @given(st.one_of(rank_deficient(), shapes.flatmap(lambda s: matrices(*s))))
    @settings(deadline=None, max_examples=60)
    def test_rank_and_nullspace(self, m):
        _, pivots = reference_rref(m.entries, m.cols)
        basis = m.nullspace()
        assert m.rank() == len(pivots)
        assert [column(v) for v in basis] == reference_nullspace(m)
        assert all((m @ v).is_zero() for v in basis)

    @given(rank_deficient().filter(lambda m: m.is_square()))
    @settings(deadline=None, max_examples=30)
    def test_singular(self, m):
        assert m.det() == ZERO
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert err.value.rank == m.rank() < m.rows

    @given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
    @settings(deadline=None, max_examples=60)
    def test_det_matches_leibniz(self, m):
        assert m.det() == leibniz_det(m)


class TestBurnsideExact:
    @pytest.mark.parametrize("seeds", [(50, 51), (52, 53)])
    def test_direct_sum_matches_modular(self, seeds):
        # (2,1;1,1,1) and (1,2;1,1,1) are simple and not isomorphic: their
        # sum generates M_3 x M_3, of dimension 18, on both paths.
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), seeds[0]))
        psi = build_rep(stable_rep((1, 2, 1, 1, 1), seeds[1]))
        both = B3Rep(block_diag([phi.X1, psi.X1]), block_diag([phi.X2, psi.X2]))
        p, rho_img = _modp.PRIMES[0]
        a1 = _modp.matrix_mod(both.X1, p, rho_img)
        a2 = _modp.matrix_mod(both.X2, p, rho_img)
        assert _burnside_rank_exact(both) == _modp.burnside_rank_mod(a1, a2, p) == 18

    def test_simple_point_matches_modular(self):
        phi = build_rep(stable_rep((2, 2, 2, 1, 1), random.Random(5).randrange(10 ** 6)))
        p, rho_img = _modp.PRIMES[0]
        a1 = _modp.matrix_mod(phi.X1, p, rho_img)
        a2 = _modp.matrix_mod(phi.X2, p, rho_img)
        assert _burnside_rank_exact(phi) == _modp.burnside_rank_mod(a1, a2, p) == 16
