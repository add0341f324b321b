import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrev import (
    CycMatrix,
    CycRat,
    DimVector,
    GLAlphaElement,
    IsomorphismSearch,
    QuiverRep,
    ShapeError,
    act,
    build_rep,
    find_isomorphism,
    hom_space,
    is_simple_dimvector,
    make_even_family,
    tau_quiver,
    trace_of,
    parse_braid,
)
from braidrev import _modp, quiver
from braidrev.families import make_odd_family, random_matrix
from braidrev.quiver import _hom_space_exact
from conftest import invertible, stable_rep


class TestSimpleDimvector:
    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((3, 3, 2, 2, 2), True),
            ((1, 0, 1, 0, 0), True),
            ((5, 2, 3, 2, 2), False),  # max sink 3 exceeds min source 2
            ((1, 1, 1, 1, 0), True),
            ((1, 1, 1, 0, 1), True),
            ((1, 1, 2, 0, 0), False),
            ((2, 2, 2, 2, 0), False),
            ((2, 1, 1, 1, 1), True),
            ((2, 2, 2, 1, 1), True),
            ((3, 2, 2, 2, 2), False),  # unbalanced
        ],
    )
    def test_criterion(self, dims, expected):
        assert is_simple_dimvector(DimVector(*dims)) is expected


def random_group_element(dims: DimVector, rng: random.Random) -> GLAlphaElement:
    sizes = dims.source_blocks + dims.sink_blocks
    blocks = []
    for s in sizes:
        if s == 0:
            blocks.append(CycMatrix.zeros(0, 0))
        else:
            blocks.append(invertible(rng, s))
    return GLAlphaElement(*blocks)


def group_inverse(g: GLAlphaElement) -> GLAlphaElement:
    return GLAlphaElement(*(blk.inverse() for blk in g.blocks()))


class TestAction:
    def test_identity_acts_trivially(self, rng):
        V = stable_rep((2, 1, 1, 1, 1), 5)
        assert act(GLAlphaElement.identity(V.dims), V) == V

    def test_inverse_undoes(self, rng):
        V = stable_rep((2, 2, 2, 1, 1), 6)
        g = random_group_element(V.dims, rng)
        assert act(g, act(group_inverse(g), V)) == V

    def test_group_action_law(self, rng):
        V = stable_rep((2, 1, 1, 1, 1), 7)
        g = random_group_element(V.dims, rng)
        h = random_group_element(V.dims, rng)
        gh = GLAlphaElement(*(a @ b for a, b in zip(g.blocks(), h.blocks())))
        assert act(gh, V) == act(g, act(h, V))

    def test_shape_mismatch(self):
        V = stable_rep((2, 1, 1, 1, 1), 8)
        bad = GLAlphaElement.identity(DimVector(1, 1, 1, 1, 0))
        with pytest.raises(ShapeError):
            act(bad, V)

    def test_zero_block_dimension(self, rng):
        V = QuiverRep(DimVector(1, 1, 1, 0, 1), CycMatrix([[1, 1], [2, 1]]))
        g = random_group_element(V.dims, rng)
        assert act(group_inverse(g), act(g, V)) == V

    def test_singular_source_block(self):
        from braidrev import SingularMatrixError

        V = stable_rep((2, 1, 1, 1, 1), 8)
        g = GLAlphaElement.identity(V.dims)
        bad = GLAlphaElement(CycMatrix.zeros(2, 2), g.M2, g.N1, g.N2, g.N3)
        with pytest.raises(SingularMatrixError):
            act(bad, V)


class TestTau:
    def test_two_by_two_value(self):
        V = QuiverRep(DimVector(1, 1, 1, 0, 1), CycMatrix([[1, 1], [2, 1]]))
        assert tau_quiver(V).B == CycMatrix([[-1, 2], [1, -1]])

    def test_involution_exact(self):
        V = stable_rep((3, 2, 2, 2, 1), 9)
        assert tau_quiver(tau_quiver(V)) == V

    def test_dims_preserved(self):
        V = stable_rep((2, 2, 2, 1, 1), 10)
        assert tau_quiver(V).dims == V.dims


def hom_space_full_oracle(V: QuiverRep, W: QuiverRep) -> int:
    """Independent computation of dim Hom(V, W): nullity of the full linear
    system diag(N) . V.B - W.B . diag(M) = 0 in all five block unknowns,
    without the source-side reduction used by the implementation."""
    d = V.dims
    n = d.n
    sizes = [d.a, d.b, d.x, d.y, d.z]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s * s
    src_off = (0, d.a)
    snk_off = (0, d.x, d.x + d.y)

    def src_block(col):
        return (0, col) if col < d.a else (1, col - d.a)

    def snk_block(row):
        if row < d.x:
            return 0, row
        if row < d.x + d.y:
            return 1, row - d.x
        return 2, row - d.x - d.y

    rows = []
    for r in range(n):
        for c in range(n):
            row = [CycRat(0)] * total
            bi, ri = snk_block(r)
            size_n = sizes[2 + bi]
            for k in range(size_n):
                # entry (ri, k) of N_bi multiplies V.B[snk_off+k][c]
                row[offsets[2 + bi] + ri * size_n + k] += V.B[snk_off[bi] + k, c]
            bj, cj = src_block(c)
            size_m = sizes[bj]
            for l in range(size_m):
                # entry (l, cj) of M_bj multiplies -W.B[r][src_off+l]
                row[offsets[bj] + l * size_m + cj] += -W.B[r, src_off[bj] + l]
            rows.append(row)
    system = CycMatrix(rows)
    return total - system.rank()


class TestHomSpace:
    def test_schur_dimension_one(self):
        V = stable_rep((2, 1, 1, 1, 1), 12)
        basis = hom_space(V, V)
        assert len(basis) == 1

    def test_nonisomorphic_zero(self):
        V = stable_rep((3, 3, 2, 2, 2), 13)
        W = stable_rep((3, 3, 2, 2, 2), 14)
        # confirm they are distinct orbits through an invariant
        word = parse_braid("s1 s2^-1 s1")
        assert trace_of(build_rep(V), word) != trace_of(build_rep(W), word)
        assert hom_space(V, W) == []

    def test_direct_sum_dimension_two(self):
        # identity base change at (1,1;1,1,0) is the sum of two distinct
        # one-dimensional representations
        V = QuiverRep(DimVector(1, 1, 1, 1, 0), CycMatrix.identity(2))
        assert len(hom_space(V, V)) == 2

    def test_matches_full_linearization(self, rng):
        for dims, seed in (((2, 1, 1, 1, 1), 15), ((1, 1, 1, 0, 1), 16)):
            V = stable_rep(dims, seed)
            W = tau_quiver(V)
            assert len(hom_space(V, W)) == hom_space_full_oracle(V, W)
            assert len(hom_space(V, V)) == hom_space_full_oracle(V, V)

    def test_solutions_satisfy_intertwining(self):
        V = stable_rep((2, 2, 2, 1, 1), 17)
        W = tau_quiver(V)
        for g in hom_space(V, W):
            assert g.sink_matrix() @ V.B == W.B @ g.source_matrix()

    def test_dim_mismatch(self):
        V = stable_rep((2, 1, 1, 1, 1), 18)
        W = QuiverRep(DimVector(1, 1, 1, 0, 1), CycMatrix([[1, 1], [2, 1]]))
        with pytest.raises(ShapeError):
            hom_space(V, W)


def direct_sum(V: QuiverRep, W: QuiverRep) -> QuiverRep:
    """V + W, with each of the five blocks holding V's part then W's."""
    def positions(sizes_v, sizes_w):
        pos_v, pos_w, at = [], [], 0
        for sv, sw in zip(sizes_v, sizes_w):
            pos_v += range(at, at + sv)
            pos_w += range(at + sv, at + sv + sw)
            at += sv + sw
        return pos_v, pos_w

    dv, dw = V.dims, W.dims
    dims = DimVector(dv.a + dw.a, dv.b + dw.b, dv.x + dw.x, dv.y + dw.y, dv.z + dw.z)
    rows = positions(dv.sink_blocks, dw.sink_blocks)
    cols = positions(dv.source_blocks, dw.source_blocks)
    entries = [[CycRat(0)] * dims.n for _ in range(dims.n)]
    for rep, rpos, cpos in ((V, rows[0], cols[0]), (W, rows[1], cols[1])):
        for i, r in enumerate(rpos):
            for j, c in enumerate(cpos):
                entries[r][c] = rep.B[i, j]
    return QuiverRep(dims, CycMatrix(entries))


class counting_nullspace:
    """Context manager counting exact ``CycMatrix.nullspace`` calls."""

    def __enter__(self):
        self.calls = 0
        self._mp = pytest.MonkeyPatch()
        orig = CycMatrix.nullspace

        def wrapper(mat):
            self.calls += 1
            return orig(mat)

        self._mp.setattr(CycMatrix, "nullspace", wrapper)
        return self

    def __exit__(self, *exc):
        self._mp.undo()


SIMPLE_DIMS = ((2, 1, 1, 1, 1), (1, 2, 1, 1, 1), (2, 2, 2, 1, 1), (3, 2, 2, 2, 1),
               (3, 3, 2, 2, 2))


class TestModularHomSpace:
    """The modular route of ``hom_space`` against ``_hom_space_exact``."""

    @given(st.sampled_from(SIMPLE_DIMS), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6), st.sampled_from(("self", "tau", "other")))
    @settings(deadline=None, max_examples=20)
    def test_stable_points(self, dims, seed, other_seed, pairing):
        V = stable_rep(dims, seed)
        W = {"self": V, "tau": tau_quiver(V),
             "other": stable_rep(dims, other_seed)}[pairing]
        with counting_nullspace() as count:
            basis = hom_space(W, V)
        assert count.calls == 0
        assert len(basis) <= 1
        assert basis == _hom_space_exact(W, V)

    @given(st.sampled_from(SIMPLE_DIMS[:3]), st.sampled_from(SIMPLE_DIMS[:3]),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.booleans())
    @settings(deadline=None, max_examples=15)
    def test_direct_sums_fall_back(self, dims_1, dims_2, seed_1, seed_2, same):
        V1 = stable_rep(dims_1, seed_1)
        V2 = V1 if same else stable_rep(dims_2, seed_2)
        S = direct_sum(V1, V2)
        g = random_group_element(S.dims, random.Random(seed_1 ^ seed_2))
        T = act(g, S)
        with counting_nullspace() as count:
            basis = hom_space(S, T)
        assert len(basis) >= 2
        assert count.calls == 1
        assert basis == _hom_space_exact(S, T)
        # the exact route shares its system with the modular one, so check
        # it against a system built independently
        assert len(basis) == hom_space_full_oracle(S, T)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @given(seed=st.integers(0, 10 ** 6))
    @settings(deadline=None, max_examples=3)
    def test_odd_family_points(self, k, seed):
        V = make_odd_family(k, seed)
        W = tau_quiver(V)
        with counting_nullspace() as count:
            basis = hom_space(W, V)
        assert count.calls == 0
        assert len(basis) == 1
        assert basis == _hom_space_exact(W, V)

    def test_python_int_residual(self, monkeypatch):
        # hom(V, tau V) multiplies two inverses: coefficients above the
        # int64 bound, so the system and the residual hold Python ints
        V = make_odd_family(3, 11)
        W = tau_quiver(V)
        lifted = []
        lift = _modp._lift

        def spy(block, rhs, p, rho):
            lifted.append((block[0].dtype, max(abs(int(x)) for x in block[0].ravel())))
            return lift(block, rhs, p, rho)

        monkeypatch.setattr(_modp, "_lift", spy)
        with counting_nullspace() as count:
            basis = hom_space(V, W)
        assert count.calls == 0
        ((dtype, height),) = lifted
        assert dtype == object and height >= 2 ** 62
        assert len(basis) == 1
        assert basis == _hom_space_exact(V, W)

    @pytest.mark.parametrize("k", [7, 11])
    def test_large_odd_points_certify(self, k):
        V = make_odd_family(k, 1)
        with counting_nullspace() as count:
            (g,) = hom_space(tau_quiver(V), V)
        assert count.calls == 0
        assert g.is_invertible()

    def test_system_built_once_on_both_routes(self, monkeypatch):
        # a stable pair takes the modular route; a direct sum of a point
        # with itself (hom dimension 4) falls back to exact elimination,
        # which reuses the system the modular route was given
        V = stable_rep((2, 1, 1, 1, 1), 3)
        S = direct_sum(V, V)
        T = act(random_group_element(S.dims, random.Random(4)), S)
        system = quiver._hom_system
        calls = []

        def spy(*args):
            calls.append(args[0])
            return system(*args)

        monkeypatch.setattr(quiver, "_hom_system", spy)
        for pair, nullspaces, dim in (((tau_quiver(V), V), 0, 1), ((S, T), 1, 4)):
            calls.clear()
            with counting_nullspace() as count:
                basis = hom_space(*pair)
            assert (calls, count.calls, len(basis)) == ([pair[0].dims], nullspaces, dim)

    def test_singular_second_root_moves_on(self, monkeypatch):
        # at p = 13 (rho = 3) the square block of this point is invertible
        # under w -> 3 and singular under w -> 9; the next prime certifies
        V = stable_rep((2, 2, 2, 1, 1), 0)
        W = tau_quiver(V)
        small, table = (13, 3), _modp.PRIMES[0]
        lifted = []
        lift = _modp._lift

        def spy(block, rhs, p, rho):
            images = [_modp._inverse_mod(_modp._embed(*block, p, r), p)
                      for r in (rho, rho * rho % p)]
            lifted.append((p, [inv is None for inv in images]))
            return lift(block, rhs, p, rho)

        monkeypatch.setattr(_modp, "PRIMES", (small, table))
        monkeypatch.setattr(_modp, "_lift", spy)
        with counting_nullspace() as count:
            basis = hom_space(W, V)
        assert lifted == [(13, [False, True]), (table[0], [False, False])]
        assert count.calls == 0
        assert basis == _hom_space_exact(W, V)
        assert len(basis) == 1

    def test_too_few_primes_falls_back(self, monkeypatch):
        # nothing reconstructs: both primes lift to the Hadamard bound and
        # give up, and exact elimination answers
        V = make_odd_family(3, 11)
        W = tau_quiver(V)
        monkeypatch.setattr(_modp, "_reconstruct", lambda residues, m: None)
        with counting_nullspace() as count:
            basis = hom_space(W, V)
        assert count.calls == 1
        assert basis == _hom_space_exact(W, V)
        assert len(basis) == 1

    def test_rejected_candidates_fall_back(self, monkeypatch):
        # every reconstruction has a wrong first entry, which the exact
        # check must reject
        V = stable_rep((2, 2, 2, 1, 1), 31)
        W = tau_quiver(V)
        reconstruct = _modp._reconstruct
        element = quiver._hom_element
        rejected = []

        def corrupted(residues, m):
            out = reconstruct(residues, m)
            return None if out is None else [(out[0][0] + 1, out[0][1])] + out[1:]

        def checked(*args, **kwargs):
            result = element(*args, **kwargs)
            rejected.append(result is None)
            return result

        monkeypatch.setattr(_modp, "_reconstruct", corrupted)
        monkeypatch.setattr(quiver, "_hom_element", checked)
        with counting_nullspace() as count:
            basis = hom_space(W, V)
        assert rejected and all(rejected[:-1])
        assert count.calls == 1
        assert basis == _hom_space_exact(W, V)
        assert len(basis) == 1


class TestAreIsomorphic:
    def test_reflexive(self):
        V = stable_rep((2, 1, 1, 1, 1), 19)
        g = find_isomorphism(V, V).witness
        assert g is not None
        assert act(g, V) == V

    def test_even_family_random_A(self, rng):
        ident = CycMatrix.identity(3)
        A = random_matrix(rng, 3, 3)
        while not A.det() or not (A - ident).det():
            A = random_matrix(rng, 3, 3)
        V = make_even_family(3, A)
        g = find_isomorphism(V, tau_quiver(V), rng).witness
        assert g is not None
        assert act(g, V) == tau_quiver(V)

    def test_random_pair_not_isomorphic(self):
        V = stable_rep((3, 3, 2, 2, 2), 20)
        W = stable_rep((3, 3, 2, 2, 2), 21)
        search = find_isomorphism(V, W)
        assert search.witness is None
        assert not search.inconclusive

    def test_symmetric(self, rng):
        V = stable_rep((2, 2, 2, 1, 1), 22)
        W = act(random_group_element(V.dims, rng), V)
        g = find_isomorphism(V, W, rng).witness
        h = find_isomorphism(W, V, rng).witness
        assert g is not None and h is not None
        assert act(g, V) == W and act(h, W) == V

    def test_witness_action_compatibility(self, rng):
        V = stable_rep((3, 2, 2, 2, 1), 23)
        W = act(random_group_element(V.dims, rng), V)
        g = find_isomorphism(V, W, rng).witness
        assert act(g, V) == W

    def test_one_dim_singular_hom_is_definitive(self):
        # direct sums sharing exactly one summand: hom is spanned by the
        # identity on it, which is singular as a tuple, so "not isomorphic"
        # needs no random search
        def sum_with(a):
            return QuiverRep(
                DimVector(2, 1, 2, 0, 1),
                CycMatrix([[1, 0, 0], [0, 1, 1], [0, a, 1]]),
            )

        search = find_isomorphism(sum_with(2), sum_with(3))
        assert search.hom_dim == 1
        assert search.witness is None
        assert not search.inconclusive

    def test_witness_check_without_inverses(self):
        V = make_odd_family(2, 7)
        W = tau_quiver(V)
        g = find_isomorphism(W, V).witness
        assert quiver._is_witness(g, W, V) and act(g, W) == V
        for name in ("M1", "N2"):
            blk = getattr(g, name)
            bump = CycMatrix([[int(i == j == 0) for j in range(blk.cols)]
                              for i in range(blk.rows)])
            bad = GLAlphaElement(**{**vars(g), name: blk + bump})
            assert bad.is_invertible()
            assert not quiver._is_witness(bad, W, V)

    def test_non_stable_isomorphic_found_by_search(self, rng):
        # the square of a one-dimensional representation: hom space is the
        # full 2x2 algebra whose basis consists of singular tuples, so the
        # witness comes from the seeded random-combination search
        V = QuiverRep(DimVector(2, 0, 2, 0, 0), CycMatrix.identity(2))
        search = find_isomorphism(V, V, rng)
        assert search.hom_dim == 4
        assert search.witness is not None
        assert act(search.witness, V) == V

    def test_inconclusive_is_derived(self):
        g = GLAlphaElement.identity(DimVector(2, 1, 1, 1, 1))
        assert IsomorphismSearch(None, 2).inconclusive
        assert not IsomorphismSearch(None, 1).inconclusive
        assert not IsomorphismSearch(None, 0).inconclusive
        assert not any(IsomorphismSearch(g, d).inconclusive for d in (1, 2, 4))


class TestSerialization:
    def test_quiver_round_trip(self):
        V = stable_rep((2, 1, 1, 1, 1), 24)
        back = QuiverRep.from_obj(V.to_obj())
        assert back == V
