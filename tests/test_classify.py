import pytest

from braidrev import (
    DimVector,
    classify_component,
    component_dimension,
    detecting_rule,
    enumerate_components,
    is_fixed_dimvector,
    is_simple_dimvector,
    normalize,
)
from braidrev.classify import DETECTING, FIXED, NOT_SIMPLE


def dv(a, b, x, y, z):
    return DimVector(a, b, x, y, z)


class TestNormalize:
    def test_source_swap(self):
        assert normalize(dv(2, 4, 2, 2, 2)) == dv(4, 2, 2, 2, 2)

    def test_rotation_to_max(self):
        assert normalize(dv(3, 3, 1, 3, 2)) == dv(3, 3, 3, 2, 1)

    def test_mirror_pair_stays_distinct(self):
        # the two mirror inputs normalize to the two distinct canonical forms
        assert normalize(dv(3, 3, 2, 1, 3)) == dv(3, 3, 3, 2, 1)
        assert normalize(dv(3, 3, 2, 3, 1)) == dv(3, 3, 3, 1, 2)
        assert normalize(dv(3, 3, 3, 1, 2)) == dv(3, 3, 3, 1, 2)

    def test_fixed_point_of_normalization(self):
        assert normalize(dv(1, 0, 1, 0, 0)) == dv(1, 0, 1, 0, 0)
        assert normalize(dv(1, 1, 1, 0, 1)) == dv(1, 1, 1, 0, 1)

    def test_tie_break(self):
        assert normalize(dv(2, 3, 1, 2, 2)) == dv(3, 2, 2, 2, 1)

    def test_idempotent(self):
        for vec in (dv(3, 3, 1, 3, 2), dv(2, 4, 2, 2, 2), dv(5, 4, 2, 4, 3)):
            assert normalize(normalize(vec)) == normalize(vec)


class TestComponentDimension:
    @pytest.mark.parametrize(
        "vec,expected",
        [
            (dv(3, 3, 3, 2, 1), 6),   # even family k = 3
            (dv(4, 2, 2, 2, 2), 6),
            (dv(3, 3, 2, 2, 2), 8),   # 2 + 18 - 12
            (dv(1, 0, 1, 0, 0), 1),
            (dv(2, 1, 1, 1, 1), 3),
        ],
    )
    def test_formula(self, vec, expected):
        assert component_dimension(vec) == expected

    def test_rejects_non_simple(self):
        with pytest.raises(ValueError):
            component_dimension(dv(5, 2, 3, 2, 2))


class TestClassify:
    def test_detecting(self):
        report = classify_component(dv(3, 3, 2, 2, 2))
        assert report.verdict == DETECTING
        assert report.component_dim == 8

    def test_exceptional_fixed(self):
        report = classify_component(dv(4, 2, 2, 2, 2))
        assert report.verdict == FIXED and report.component_dim == 6

    def test_odd_family_k1(self):
        assert classify_component(dv(2, 1, 1, 1, 1)).verdict == FIXED

    def test_normalizes_input(self):
        report = classify_component(dv(2, 4, 2, 2, 2))
        assert report.dims == dv(4, 2, 2, 2, 2) and report.verdict == FIXED

    def test_not_simple(self):
        report = classify_component(dv(2, 2, 2, 2, 0))
        assert report.verdict == NOT_SIMPLE
        assert report.component_dim is None

    @pytest.mark.parametrize("vec", [(4, 2, 2, 2, 2), (3, 3, 2, 2, 2), (2, 2, 2, 2, 0)])
    def test_fields_follow_dims_and_verdict(self, vec):
        report = classify_component(dv(*vec))
        simple = is_simple_dimvector(report.dims)
        assert report.n == sum(vec[:2]) and report.simple is simple
        assert report.component_dim == (component_dimension(report.dims) if simple else None)
        assert report.to_obj() == {"dims": report.dims.to_obj(), "n": report.n,
                                   "simple": simple, "component_dim": report.component_dim,
                                   "verdict": report.verdict}


EXPECTED_FIXED = {
    1: {(1, 0, 1, 0, 0)},
    2: {(1, 1, 1, 1, 0), (1, 1, 1, 0, 1)},
    3: {(2, 1, 1, 1, 1)},
    4: {(2, 2, 2, 1, 1)},
    5: {(3, 2, 2, 2, 1), (3, 2, 2, 1, 2)},
    6: {(3, 3, 3, 2, 1), (3, 3, 3, 1, 2), (4, 2, 2, 2, 2)},
}


class TestEnumerate:
    @pytest.mark.parametrize("n", sorted(EXPECTED_FIXED))
    def test_small_fixed_lists(self, n):
        reports = enumerate_components(n)
        fixed = {
            (r.dims.a, r.dims.b, r.dims.x, r.dims.y, r.dims.z)
            for r in reports
            if r.verdict == FIXED
        }
        assert fixed == EXPECTED_FIXED[n]

    def test_n2_components_exactly(self):
        reports = enumerate_components(2)
        assert [(str(r.dims), r.verdict) for r in reports] == [
            ("(1,1;1,0,1)", FIXED),
            ("(1,1;1,1,0)", FIXED),
        ]

    def test_no_duplicates_all_simple_sorted(self):
        for n in range(1, 15):
            reports = enumerate_components(n)
            dims = [r.dims for r in reports]
            assert len(set(dims)) == len(dims)
            assert dims == sorted(dims, key=lambda d: (d.a, d.b, d.x, d.y, d.z))
            assert all(is_simple_dimvector(d) for d in dims)
            assert all(normalize(d) == d for d in dims)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_components(0)


class TestCrossCheck:
    def test_rule_agrees_with_list_up_to_20(self):
        for n in range(1, 21):
            for report in enumerate_components(n):
                rule_says_detecting = detecting_rule(report.dims)
                assert rule_says_detecting == (report.verdict == DETECTING), report.dims

    def test_fixed_components_have_dimension_n(self):
        for n in range(1, 21):
            for report in enumerate_components(n):
                if report.verdict == FIXED:
                    assert report.component_dim == n

    def test_families_present_for_larger_n(self):
        fixed14 = {
            (r.dims.a, r.dims.b, r.dims.x, r.dims.y, r.dims.z)
            for r in enumerate_components(14)
            if r.verdict == FIXED
        }
        assert fixed14 == {(7, 7, 7, 6, 1), (7, 7, 7, 1, 6)}
        fixed15 = {
            (r.dims.a, r.dims.b, r.dims.x, r.dims.y, r.dims.z)
            for r in enumerate_components(15)
            if r.verdict == FIXED
        }
        assert fixed15 == {(8, 7, 7, 7, 1), (8, 7, 7, 1, 7)}

    def test_is_fixed_handles_unnormalized_input(self):
        assert is_fixed_dimvector(dv(2, 4, 2, 2, 2))
        assert not is_fixed_dimvector(dv(3, 3, 2, 2, 2))
