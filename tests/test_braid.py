import random

import pytest

from braidrev import (
    B3Rep,
    BraidSyntaxError,
    BraidWord,
    CycMatrix,
    CycRat,
    DimVector,
    EIGHT_SEVENTEEN,
    ONE,
    QuiverRep,
    RHO2,
    block_diag,
    build_rep,
    evaluate,
    is_simple,
    make_dim6_detecting,
    parse_braid,
    recover_dimvector,
    reverse_braid,
    tau_quiver,
    tau_rep,
    trace_of,
)
from braidrev import _modp
from braidrev.braid import _burnside_rank_exact, _sign_matrix
from conftest import invertible, stable_rep


class TestParse:
    def test_detection_braid(self):
        word = parse_braid("s1^-2 s2 s1^-1 s2 s1^-1 s2^2")
        assert word.syllables == ((1, -2), (2, 1), (1, -1), (2, 1), (1, -1), (2, 2))
        assert word == EIGHT_SEVENTEEN
        assert word.exponent_sum() == 0

    def test_free_cancellation(self):
        assert parse_braid("s1 s1^-1") == BraidWord(())

    def test_merge(self):
        assert parse_braid("s1^2 s1").syllables == ((1, 3),)

    def test_whitespace_optional(self):
        assert parse_braid("s1s2^3s1").syllables == ((1, 1), (2, 3), (1, 1))

    def test_empty_input(self):
        assert parse_braid("") == BraidWord(())
        assert parse_braid("   ") == BraidWord(())

    def test_deep_cancellation(self):
        assert parse_braid("s1 s2 s2^-1 s1^-1") == BraidWord(())

    @pytest.mark.parametrize("bad,pos", [("s3", 0), ("x1", 0), ("s1^", 2), ("s1^x", 2)])
    def test_syntax_errors(self, bad, pos):
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(bad)
        assert err.value.position == pos

    def test_zero_exponent(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid("s1^0")

    def test_str_round_trip(self):
        word = parse_braid("s2^2 s1^-1 s2")
        assert parse_braid(str(word)) == word


class TestReverse:
    def test_detection_braid_reversed(self):
        rev = reverse_braid(EIGHT_SEVENTEEN)
        assert rev == parse_braid("s2^2 s1^-1 s2 s1^-1 s2 s1^-2")

    def test_involution(self):
        word = parse_braid("s1 s2^-3 s1^2")
        assert reverse_braid(reverse_braid(word)) == word

    def test_empty_and_single(self):
        assert reverse_braid(BraidWord(())) == BraidWord(())
        assert reverse_braid(parse_braid("s1")) == parse_braid("s1")


class TestBuildRep:
    def test_one_dimensional_trivial(self):
        V = QuiverRep(DimVector(1, 0, 1, 0, 0), CycMatrix([[1]]))
        phi = build_rep(V)
        assert phi.X1 == CycMatrix([[1]]) and phi.X2 == CycMatrix([[1]])

    def test_one_dimensional_rho_block(self):
        # dims (1,0;0,1,0): the order-3 generator acts by w^2
        V = QuiverRep(DimVector(1, 0, 0, 1, 0), CycMatrix([[1]]))
        phi = build_rep(V)
        assert phi.X1 == CycMatrix([[RHO2]]) and phi.X2 == CycMatrix([[RHO2]])
        # hand oracle: word s1^2 s2 evaluates to w^6 = 1
        assert trace_of(phi, parse_braid("s1^2 s2")) == ONE

    def test_two_dim_example_relations(self):
        V = QuiverRep(DimVector(1, 1, 1, 0, 1), CycMatrix([[1, 1], [2, 1]]))
        build_rep(V).check_relations()

    @pytest.mark.parametrize(
        "dims,seed",
        [
            ((1, 1, 1, 1, 0), 30),
            ((2, 1, 1, 1, 1), 31),
            ((2, 2, 2, 1, 1), 32),
            ((3, 2, 2, 2, 1), 33),
            ((3, 3, 2, 2, 2), 34),
            ((4, 2, 2, 2, 2), 35),
        ],
    )
    def test_relations_across_components(self, dims, seed):
        phi = build_rep(stable_rep(dims, seed))
        phi.check_relations()

    def test_central_square_is_identity(self):
        phi = build_rep(stable_rep((2, 2, 2, 1, 1), 36))
        s = phi.X1 @ phi.X2 @ phi.X1
        assert s @ s == CycMatrix.identity(phi.n)


class TestTauRep:
    def test_involution(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 37))
        assert tau_rep(tau_rep(phi)) == phi

    def test_trace_reversal_identity(self, rng):
        phi = build_rep(stable_rep((3, 2, 2, 2, 1), 38))
        tphi = tau_rep(phi)
        for _ in range(10):
            word = random_word(rng)
            assert trace_of(tphi, word) == trace_of(phi, reverse_braid(word))

    def test_conjugation_by_sign_matrix(self):
        # building on the transposed-inverse matrix equals conjugating the
        # transposed representation by J = diag(1_a, -1_b)
        V = stable_rep((2, 2, 2, 1, 1), 39)
        lhs = build_rep(tau_quiver(V))
        tphi = tau_rep(build_rep(V))
        J = _sign_matrix(V.dims)
        assert lhs.X1 == J @ tphi.X1 @ J
        assert lhs.X2 == J @ tphi.X2 @ J


def random_word(rng: random.Random, max_syllables: int = 5) -> BraidWord:
    raw = []
    for _ in range(rng.randint(0, max_syllables)):
        exp = 0
        while exp == 0:
            exp = rng.randint(-2, 2)
        raw.append((rng.choice((1, 2)), exp))
    text = " ".join(f"s{g}^{e}" for g, e in raw)
    return parse_braid(text)


class TestEvaluate:
    def test_empty_word(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 40))
        assert evaluate(phi, BraidWord(())) == CycMatrix.identity(3)

    def test_braid_relation(self):
        phi = build_rep(stable_rep((2, 2, 2, 1, 1), 41))
        assert evaluate(phi, parse_braid("s1 s2 s1")) == evaluate(
            phi, parse_braid("s2 s1 s2")
        )

    def test_power(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 42))
        expected = CycMatrix.identity(3)
        for _ in range(6):
            expected = expected @ phi.X1
        assert evaluate(phi, parse_braid("s1^6")) == expected

    def test_negative_power(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 43))
        assert evaluate(phi, parse_braid("s2^-3")) == evaluate(
            phi, parse_braid("s2^3")
        ).inverse()


class TestTrace:
    def test_empty_word_gives_dimension(self):
        phi = build_rep(stable_rep((3, 2, 2, 2, 1), 44))
        assert trace_of(phi, BraidWord(())) == CycRat(5)

    def test_conjugation_invariance(self, rng):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 45))
        p = invertible(rng, 3)
        pinv = p.inverse()
        conj = B3Rep(pinv @ phi.X1 @ p, pinv @ phi.X2 @ p)
        word = parse_braid("s1^-1 s2^2 s1")
        assert trace_of(conj, word) == trace_of(phi, word)

    def test_detection_braid_separates_generic_point(self):
        V = make_dim6_detecting([2, 3, 5, 7, 11, 13, 17])
        phi = build_rep(V)
        assert trace_of(phi, EIGHT_SEVENTEEN) != trace_of(
            phi, reverse_braid(EIGHT_SEVENTEEN)
        )


class TestSimplicity:
    def test_one_dimensional(self):
        phi = build_rep(QuiverRep(DimVector(1, 0, 1, 0, 0), CycMatrix([[1]])))
        assert is_simple(phi)

    def test_direct_sum_not_simple(self):
        # block sum of the trivial and a sign-twisted one-dimensional rep
        x1 = CycMatrix.diagonal([1, -1])
        phi = B3Rep(x1, x1)
        phi.check_relations()
        assert not is_simple(phi)

    def test_generic_six_dimensional(self):
        phi = build_rep(make_dim6_detecting([2, 3, 5, 7, 11, 13, 17]))
        assert is_simple(phi)
        assert _burnside_rank_exact(phi) == 36

    def test_exact_matches_fast_path(self):
        phi = build_rep(stable_rep((2, 2, 2, 1, 1), 46))
        assert _burnside_rank_exact(phi) == 16
        assert is_simple(phi)

    def test_non_isomorphic_pair_spans_two_blocks(self):
        # (2,1;1,1,1) and (1,2;1,1,1) are simple and not isomorphic, so
        # their sum generates M_3 x M_3, of dimension 18, on both paths.
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 50))
        psi = build_rep(stable_rep((1, 2, 1, 1, 1), 51))
        both = B3Rep(block_diag([phi.X1, psi.X1]), block_diag([phi.X2, psi.X2]))
        assert _burnside_rank_exact(both) == 18
        p, rho_img = _modp.PRIMES[0]
        a1 = _modp.matrix_mod(both.X1, p, rho_img)
        a2 = _modp.matrix_mod(both.X2, p, rho_img)
        assert _modp.burnside_rank_mod(a1, a2, p) == 18
        assert not is_simple(both)

    def test_invariant_under_action(self, rng):
        from test_quiver import random_group_element
        from braidrev import act

        V = stable_rep((2, 1, 1, 1, 1), 47)
        g = random_group_element(V.dims, rng)
        assert is_simple(build_rep(act(g, V)))


class TestRecoverDimvector:
    def test_round_trip(self):
        for dims, seed in (((2, 1, 1, 1, 1), 48), ((3, 3, 2, 2, 2), 49)):
            V = stable_rep(dims, seed)
            assert recover_dimvector(build_rep(V)) == DimVector(*dims)

    def test_one_dimensional(self):
        phi = build_rep(QuiverRep(DimVector(1, 0, 1, 0, 0), CycMatrix([[1]])))
        assert recover_dimvector(phi) == DimVector(1, 0, 1, 0, 0)

    def test_inconsistent_pair_raises(self):
        phi = B3Rep(CycMatrix([[2]]), CycMatrix([[2]]))
        with pytest.raises(ValueError):
            recover_dimvector(phi)


class TestSerialization:
    def test_round_trip(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 50))
        back = B3Rep.from_obj(phi.to_obj())
        assert back == phi
        back.check_relations()

    def test_size_mismatch(self):
        phi = build_rep(stable_rep((2, 1, 1, 1, 1), 51))
        obj = phi.to_obj()
        obj["n"] = 7
        with pytest.raises(ValueError):
            B3Rep.from_obj(obj)

    def test_relation_check_rejects_bogus_pair(self):
        bogus = B3Rep(CycMatrix([[2, 0], [0, 1]]), CycMatrix.identity(2))
        with pytest.raises(ValueError):
            bogus.check_relations()

    def test_from_obj_checks_relations(self):
        bogus = B3Rep(CycMatrix([[2, 0], [0, 1]]), CycMatrix.identity(2))
        with pytest.raises(ValueError, match="relation"):
            B3Rep.from_obj(bogus.to_obj())
