import math

import pytest
from hypothesis import given, strategies as st

from braidrev import (
    CycMatrix,
    CycRat,
    ONE,
    RHO,
    RHO2,
    Rational,
    TrivariatePoly,
    ZERO,
    parse_cycrat,
    pencil_det,
)


def brute_mul(u: CycRat, v: CycRat) -> CycRat:
    """Independent oracle: expand (a+bw)(c+dw) into (r0, r1, r2) coefficients
    of 1, w, w^2 and reduce with w^2 = -1 - w afterwards."""
    r0 = u.re * v.re
    r1 = u.re * v.rh + u.rh * v.re
    r2 = u.rh * v.rh
    return CycRat(r0 - r2, r1 - r2)


small_rationals = st.builds(
    Rational, st.integers(-9, 9), st.integers(1, 9)
)
cycrats = st.builds(CycRat, small_rationals, small_rationals)


class TestCycRat:
    def test_basis_sum(self):
        assert CycRat(1) + CycRat(0, 1) == CycRat(1, 1)

    def test_additive_identity(self):
        u = CycRat(Rational(3, 7), Rational(-2, 5))
        assert u + ZERO == u

    def test_rho_squared_relation(self):
        # (1 + w) + w^2 = 0
        assert CycRat(1, 1) + RHO2 == ZERO
        assert ONE + RHO + RHO * RHO == ZERO

    def test_mul_defining_relation(self):
        assert RHO * RHO == RHO2
        assert RHO * RHO * RHO == ONE

    def test_mul_against_brute_expansion(self):
        u = CycRat(1, 1)
        assert u * u == brute_mul(u, u)
        assert u * u == RHO  # 1 + 2w + w^2 = w

    @given(cycrats, cycrats)
    def test_mul_matches_oracle(self, u, v):
        assert u * v == brute_mul(u, v)

    def test_inverse_examples(self):
        assert ONE.inverse() == ONE
        assert RHO.inverse() == RHO2
        two_plus_rho = CycRat(2, 1)
        inv = two_plus_rho.inverse()
        assert inv == CycRat(Rational(1, 3), Rational(-1, 3))
        assert two_plus_rho * inv == ONE

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    @given(cycrats, cycrats, cycrats)
    def test_field_axioms(self, u, v, t):
        assert (u + v) + t == u + (v + t)
        assert (u * v) * t == u * (v * t)
        assert u * (v + t) == u * v + u * t

    @given(cycrats)
    def test_inverse_law(self, u):
        if u:
            assert u * u.inverse() == ONE

    @given(cycrats)
    def test_components_stay_reduced(self, u):
        v = u * u + u
        for part in (v.re, v.rh):
            num, den = int(part.numerator), int(part.denominator)
            assert den > 0
            assert math.gcd(abs(num), den) == 1

    def test_division(self):
        u = CycRat(3, -2)
        v = CycRat(1, 5)
        assert (u / v) * v == u


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("-3/2", CycRat(Rational(-3, 2))),
            ("5w", CycRat(0, 5)),
            ("1/3-2w", CycRat(Rational(1, 3), -2)),
            ("0", ZERO),
            ("1+1w", CycRat(1, 1)),
            ("-1-1w", RHO2),
        ],
    )
    def test_parse(self, text, value):
        assert parse_cycrat(text) == value

    @given(cycrats)
    def test_round_trip(self, u):
        assert parse_cycrat(str(u)) == u

    @pytest.mark.parametrize("bad", ["w", "", "1.5", "x", "1+w", "3//2", "1 + 2w"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cycrat(bad)


# x^2 - y^2 from its coefficients
x2_minus_y2 = TrivariatePoly(2, {(2, 0, 0): ONE, (0, 2, 0): CycRat(-1)})


class TestTrivariatePoly:
    def test_sum_of_variables(self):
        p = TrivariatePoly(1, {(1, 0, 0): ONE, (0, 1, 0): ONE})
        assert p.degree == 1
        assert len(p.coeffs) == 2

    def test_zero_coefficients_dropped(self):
        q = TrivariatePoly(1, {(1, 0, 0): ZERO, (0, 1, 0): ZERO})
        assert q.is_zero() and q.degree == 1

    def test_difference_of_squares(self):
        # det diag(x + y, x - y) = (x + y)(x - y)
        p = pencil_det(
            CycMatrix.identity(2), CycMatrix.diagonal([1, -1]), CycMatrix.zeros(2, 2)
        )
        assert p == x2_minus_y2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            TrivariatePoly(1, {(1, 1, 0): ONE})

    def test_evaluate(self):
        p = x2_minus_y2
        assert p.evaluate(CycRat(3), CycRat(2), ZERO) == CycRat(5)
        assert p.evaluate(RHO, RHO, ONE) == ZERO
