import random
from dataclasses import replace

import pytest

from braidrev import (
    CycMatrix,
    CycRat,
    DimVector,
    QuiverRep,
    RHO,
    ShapeError,
    SingularMatrixError,
    act,
    build_rep,
    is_simple,
    jumping_lines_check,
    jumping_pencil,
    make_dim42_exceptional,
    make_dim6_detecting,
    make_even_family,
    make_odd_family,
    recover_dimvector,
    tau_quiver,
    verify_dim42_family,
    verify_even_witness,
    verify_odd_family,
    verify_two_dim_example,
)
from braidrev import families
from braidrev.families import (
    SamplingError,
    cokernel_partition,
    sample_even_matrix,
)
from conftest import invertible
from test_quiver import random_group_element


class TestEvenFamily:
    def test_k1_matches_two_dim_shape(self):
        V = make_even_family(1, CycMatrix([[2]]))
        assert V.B == CycMatrix([[1, 1], [2, 1]])
        assert V.dims == DimVector(1, 1, 1, 0, 1)

    def test_k2_diagonal(self):
        V = make_even_family(2, CycMatrix.diagonal([2, 3]))
        assert V.dims == DimVector(2, 2, 2, 1, 1)
        assert V.B.det()

    def test_singular_A_minus_I_rejected(self):
        with pytest.raises(SingularMatrixError):
            make_even_family(2, CycMatrix.identity(2))

    def test_singular_A_rejected(self):
        with pytest.raises(SingularMatrixError):
            make_even_family(2, CycMatrix.zeros(2, 2))

    def test_witness_small_sizes(self):
        rng = random.Random(60)
        for k in range(1, 5):
            report = verify_even_witness(k, sample_even_matrix(rng, k))
            assert report.isomorphic, report.identities_checked
            assert report.witness is not None

    def test_k1_explicit_inverse_transpose(self):
        report = verify_even_witness(1, CycMatrix([[2]]))
        assert report.isomorphic
        V = make_even_family(1, CycMatrix([[2]]))
        assert tau_quiver(V).B == CycMatrix([[-1, 2], [1, -1]])

    def test_twice_identity(self):
        # A = 2I gives C = I and every identity collapses to block algebra
        report = verify_even_witness(3, CycMatrix.scalar(3, 2))
        assert report.isomorphic

    def test_witness_orientation(self):
        A = sample_even_matrix(random.Random(61), 2)
        report = verify_even_witness(2, A)
        V = make_even_family(2, A)
        assert act(report.witness, tau_quiver(V)) == V


class TestOddFamily:
    def test_k1_dims_and_oracle(self):
        V = make_odd_family(1, seed=62)
        assert V.dims == DimVector(2, 1, 1, 1, 1)
        report = verify_odd_family(1, seed=62)
        assert report.isomorphic and report.witness is not None

    def test_k2_oracle(self):
        report = verify_odd_family(2, seed=63)
        assert report.isomorphic
        assert dict(report.identities_checked)["hom_dimension_one"]

    def test_recover_round_trip(self):
        V = make_odd_family(2, seed=64)
        assert recover_dimvector(build_rep(V)) == DimVector(3, 2, 2, 2, 1)

    def test_sampling_failure_is_loud(self, monkeypatch):
        monkeypatch.setattr(families, "ATTEMPTS", 0)
        with pytest.raises(SamplingError):
            make_odd_family(1, seed=65)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            make_odd_family(0, seed=66)


class TestDim6Detecting:
    PARAMS = [2, 3, 5, 7, 11, 13, 17]

    def test_structure_row_one(self):
        a, b, c, d, e, f, g = [CycRat(p) for p in self.PARAMS]
        V = make_dim6_detecting(self.PARAMS)
        assert V.B.entries[0] == [CycRat(1), CycRat(0), CycRat(0), a, CycRat(0), f]
        assert V.dims == DimVector(3, 3, 2, 2, 2)

    def test_generic_point_simple_and_separating(self):
        V = make_dim6_detecting(self.PARAMS)
        phi = build_rep(V)
        assert is_simple(phi)

    def test_recover_round_trip(self):
        V = make_dim6_detecting(self.PARAMS)
        assert recover_dimvector(build_rep(V)) == DimVector(3, 3, 2, 2, 2)

    def test_transpose_spot_check(self):
        V = make_dim6_detecting(self.PARAMS)
        t = V.B.transpose()
        assert t[3, 0] == CycRat(2)   # parameter a sits at (0, 3)
        assert t[5, 0] == CycRat(13)  # parameter f sits at (0, 5)
        assert t[0, 5] == CycRat(17)  # parameter g sits at (5, 0)

    def test_oracle_and_trace_separation_agree(self):
        # no witness against the transpose image, and the detection braid
        # separates: the two certificates of "not fixed" must coincide
        from braidrev import verify_dim6_detection

        report = verify_dim6_detection(self.PARAMS)
        checks = dict(report.identities_checked)
        assert checks["oracle_finds_no_witness"]
        assert checks["trace_separation"]
        assert checks["certificates_agree"]
        assert not report.isomorphic
        assert report.traces is not None and report.traces[0] != report.traces[1]
        obj = report.to_obj()
        assert set(obj["traces"]) == {"b", "b_rev"}

    def test_degenerate_parameters_singular(self):
        # (a..g) = (0,0,0,0,1,0,0) makes the determinant vanish
        # (checked by elimination); the constructor must refuse it
        with pytest.raises(SingularMatrixError):
            make_dim6_detecting([0, 0, 0, 0, 1, 0, 0])

    def test_all_zero_parameters_invertible(self):
        # the zero point of the parametrization is unimodular, det = 1
        assert make_dim6_detecting([0] * 7).B.det() == CycRat(1)

    def test_parameter_count(self):
        with pytest.raises(ValueError):
            make_dim6_detecting([1, 2, 3])


class TestDim42Exceptional:
    PARAMS = [2, 3, 5, 7, 11]

    def test_structure_row_four(self):
        V = make_dim42_exceptional(self.PARAMS)
        b = CycRat(3)
        assert V.B.entries[3] == [CycRat(0)] * 3 + [CycRat(1), CycRat(0), b]
        assert V.dims == DimVector(4, 2, 2, 2, 2)

    def test_generic_point(self):
        V = make_dim42_exceptional(self.PARAMS)
        assert is_simple(build_rep(V))
        report = verify_dim42_family(self.PARAMS)
        assert report.isomorphic, report.identities_checked

    def test_oracle_isomorphism(self):
        V = make_dim42_exceptional(self.PARAMS)
        from braidrev import find_isomorphism

        assert find_isomorphism(V, tau_quiver(V)).witness is not None

    def test_recover_round_trip(self):
        V = make_dim42_exceptional(self.PARAMS)
        assert recover_dimvector(build_rep(V)) == DimVector(4, 2, 2, 2, 2)


class TestJumpingLines:
    PARAMS = [2, 3, 5, 7, 11]

    def test_partition_of_identity(self):
        V = make_dim42_exceptional(self.PARAMS)
        assert cokernel_partition(V) == CycMatrix.identity(2)

    def test_pencil_degree(self):
        V = make_dim42_exceptional(self.PARAMS)
        assert jumping_pencil(V).degree == 2

    def test_check_passes(self):
        V = make_dim42_exceptional(self.PARAMS)
        assert jumping_lines_check(V)

    def test_invariant_under_action(self, rng):
        V = make_dim42_exceptional(self.PARAMS)
        g = random_group_element(V.dims, rng)
        moved = act(g, V)
        assert jumping_lines_check(moved)
        from braidrev import poly_proportional

        assert poly_proportional(jumping_pencil(moved), jumping_pencil(V))

    def test_shape_guard(self):
        V = make_dim6_detecting([2, 3, 5, 7, 11, 13, 17])
        with pytest.raises(ShapeError):
            jumping_lines_check(V)

    def test_rank_three_bundle(self):
        # dims (6,3;3,3,3): pencils still compare, degree 3
        rng = random.Random(67)
        B = invertible(rng, 9)
        V = QuiverRep(DimVector(6, 3, 3, 3, 3), B)
        assert jumping_pencil(V).degree == 3
        assert jumping_lines_check(V)

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2, 2), (6, 3, 3, 3, 3)],
                             ids=["fixed-42222", "detecting-63333"])
    def test_tau_pencil_is_the_same_pencil(self, dims):
        # The products C_i2 B_i2 of tau(V) are the transposes of V's, and
        # det(M^tr) = det(M): the pencils agree for any B, on detecting
        # components too, so jumping_lines_check cannot fail.
        V = QuiverRep(DimVector(*dims), invertible(random.Random(0), dims[0] + dims[1]))
        W = tau_quiver(V)
        products = [[c @ b for b, c in zip(*families._bundle_blocks(U))] for U in (V, W)]
        assert [m.transpose() for m in products[0]] == products[1]
        assert jumping_pencil(W) == jumping_pencil(V)


class TestTwoDimExample:
    def test_a_two(self):
        report = verify_two_dim_example(CycRat(2))
        assert report.isomorphic

    def test_a_minus_one(self):
        report = verify_two_dim_example(CycRat(-1))
        assert report.isomorphic

    def test_a_rho(self):
        assert verify_two_dim_example(RHO).isomorphic

    @pytest.mark.parametrize("bad", [1, 0])
    def test_excluded_parameters(self, bad):
        with pytest.raises(ValueError):
            verify_two_dim_example(CycRat(bad))


class TestWitnessReportJson:
    def test_schema(self):
        report = verify_even_witness(1, CycMatrix([[2]]))
        obj = report.to_obj()
        assert set(obj) == {"family", "isomorphic", "identities", "witness",
                            "traces", "notes"}
        assert obj["isomorphic"] is True
        assert all(set(item) == {"name", "ok"} for item in obj["identities"])
        assert obj["traces"] is None
        assert obj["family"]["kind"] == "even_k"

    def test_isomorphic_is_derived(self):
        report = verify_even_witness(1, CycMatrix([[2]]))
        assert report.isomorphic
        (name, _), *rest = report.identities_checked
        one_failure = replace(report, identities_checked=[(name, False), *rest])
        no_witness = replace(report, witness=None)
        assert all(ok for _, ok in no_witness.identities_checked)
        assert not one_failure.isomorphic and not no_witness.isomorphic
        assert one_failure.to_obj()["isomorphic"] is False
