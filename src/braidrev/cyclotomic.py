"""Exact arithmetic in the cyclotomic field Q(w), w a primitive cube root
of unity, together with homogeneous trivariate polynomials over it.

Every scalar in this package is a ``CycRat``: an element a + b*w with
rational a, b (``Rational``, the standard library's ``Fraction``), reduced
by the defining relation w**2 = -1 - w.  The basis {1, w} makes equality
a componentwise check and keeps all arithmetic inside exact rationals; no
floating point appears anywhere.  Matrices keep integers instead (see
``linalg``).
"""

from __future__ import annotations

import re as _re
from typing import Mapping

from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "CycRat",
    "ZERO",
    "ONE",
    "RHO",
    "RHO2",
    "parse_cycrat",
    "TrivariatePoly",
]

class CycRat:
    """Element ``re + rh*w`` of Q(w), with w**2 + w + 1 = 0.

    Components are exact rationals (arbitrary precision, always reduced,
    positive denominator).  Instances are immutable; all operators return
    fresh values, so sharing between threads is safe.
    """

    __slots__ = ("re", "rh")

    def __init__(self, re=0, rh=0):
        object.__setattr__(self, "re", Rational(re))
        object.__setattr__(self, "rh", Rational(rh))

    def __setattr__(self, name, value):
        raise AttributeError("CycRat is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.re + other.re, self.rh + other.rh)

    __radd__ = __add__

    def __sub__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.re - other.re, self.rh - other.rh)

    def __rsub__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "CycRat":
        return CycRat(-self.re, -self.rh)

    def __mul__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.re, self.rh
        c, d = other.re, other.rh
        # (a + b w)(c + d w) with w^2 = -1 - w
        bd = b * d
        return CycRat(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        """Multiplicative inverse: conj(u) / N(u) with N(a+bw) = a^2 - ab + b^2."""
        a, b = self.re, self.rh
        n = a * a - a * b + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return CycRat((a - b) / n, -b / n)

    def __truediv__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- comparison & hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.rh == other.rh

    def __hash__(self) -> int:
        return hash((self.re, self.rh))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.rh)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text syntax: ``-3/2``, ``5w``, ``1/3-2w``."""
        if not self.rh:
            return str(self.re)
        rh = str(self.rh) + "w"
        if not self.re:
            return rh
        if self.rh < 0:
            return f"{self.re}-{-self.rh}w"
        return f"{self.re}+{rh}"

    def __repr__(self) -> str:
        return f"CycRat('{self}')"


def _coerce(value):
    if isinstance(value, CycRat):
        return value
    if isinstance(value, int):
        return CycRat(value)
    return NotImplemented


ZERO = CycRat(0)
ONE = CycRat(1)
RHO = CycRat(0, 1)
RHO2 = CycRat(-1, -1)  # w^2 = -1 - w

_RAT = r"-?\d+(?:/\d+)?"
_CYC_RE = _re.compile(
    rf"^(?:(?P<lone>{_RAT})(?P<lonew>w)?|(?P<re>{_RAT})(?P<sign>[+-])(?P<rh>\d+(?:/\d+)?)w)$"
)


def parse_cycrat(text: str) -> CycRat:
    """Parse the canonical text syntax produced by ``str(CycRat)``.

    Accepted forms: ``<rat>``, ``<rat>w``, ``<rat>+<rat>w``, ``<rat>-<rat>w``
    where ``<rat>`` is ``[-]digits[/digits]``.  Anything else, a value
    that is not a string or a zero denominator included, raises ValueError.
    """
    m = _CYC_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a valid Q(w) literal: {text!r}")
    try:
        if m.group("lone") is not None:
            value = Rational(m.group("lone"))
            if m.group("lonew"):
                return CycRat(0, value)
            return CycRat(value)
        rh = Rational(m.group("rh"))
        if m.group("sign") == "-":
            rh = -rh
        return CycRat(Rational(m.group("re")), rh)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in Q(w) literal: {text!r}") from None


class TrivariatePoly:
    """Homogeneous polynomial in x, y, z over Q(w).

    Monomials are stored as a map from exponent triples (i, j, k) with
    i + j + k == degree to nonzero coefficients.  The zero polynomial keeps
    its declared degree but stores no monomials.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[tuple, CycRat] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for key, val in (coeffs or {}).items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponent triple {key} has total degree != {degree}")
            if val:
                clean[(i, j, k)] = val
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TrivariatePoly is immutable")

    @classmethod
    def monomial(cls, i: int, j: int, k: int, coeff=ONE) -> "TrivariatePoly":
        c = coeff if isinstance(coeff, CycRat) else CycRat(coeff)
        return cls(i + j + k, {(i, j, k): c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def evaluate(self, vx: CycRat, vy: CycRat, vz: CycRat) -> CycRat:
        total = ZERO
        for (i, j, k), c in self.coeffs.items():
            term = c
            for base, exp in ((vx, i), (vy, j), (vz, k)):
                for _ in range(exp):
                    term = term * base
            total = total + term
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrivariatePoly):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs, reverse=True):
            c = self.coeffs[key]
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", key)
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == ONE:
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TrivariatePoly(deg={self.degree}, {self})"
