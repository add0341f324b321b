"""Braid words on two generators and representations of the three-string
braid group built from quiver data.

The construction takes an invertible base-change matrix B with blocks
(x, y, z) by (a, b) and produces the generator images

    X1 = B^{-1} D B J        X2 = J B^{-1} D B

with D = diag(1_x, w^2 1_y, w 1_z) and J = diag(1_a, -1_b).  The central
scalar of the group is pinned to 1 throughout, so (X1 X2)^3 = I and
(X1 X2 X1)^2 = I hold exactly and all arithmetic stays in Q(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import matmul

from . import _modp
from .cyclotomic import CycRat, ONE, RHO, RHO2
from .linalg import CycMatrix, ShapeError, _bareiss_row, _read_at, span_closure_dim
from .quiver import DimVector, QuiverRep

__all__ = [
    "BraidWord",
    "BraidSyntaxError",
    "parse_braid",
    "reverse_braid",
    "EIGHT_SEVENTEEN",
    "B3Rep",
    "build_rep",
    "tau_rep",
    "evaluate",
    "trace_of",
    "is_simple",
    "recover_dimvector",
]


class BraidSyntaxError(ValueError):
    """Malformed braid word; ``position`` is the offending text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class BraidWord:
    """Freely reduced word in the generators s1, s2.

    ``syllables`` is a sequence of (generator, exponent) pairs with
    generator in {1, 2}, nonzero exponents, and distinct adjacent
    generators.
    """

    syllables: tuple

    def __post_init__(self):
        prev = None
        for gen, exp in self.syllables:
            if gen not in (1, 2) or exp == 0 or gen == prev:
                raise ValueError(f"word {self.syllables} is not freely reduced")
            prev = gen

    def __len__(self) -> int:
        return len(self.syllables)

    def exponent_sum(self) -> int:
        return sum(exp for _, exp in self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return ""
        return " ".join(
            f"s{gen}" if exp == 1 else f"s{gen}^{exp}" for gen, exp in self.syllables
        )


def _reduce_syllables(raw) -> tuple:
    stack = []
    for gen, exp in raw:
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        elif exp:
            stack.append((gen, exp))
    return tuple(stack)


def parse_braid(text: str) -> BraidWord:
    """Parse ``("s1"|"s2")("^" integer)?`` terms, whitespace optional.

    The empty string parses to the empty word.  The result is freely
    reduced: adjacent syllables on the same generator are merged and
    cancelled.
    """
    raw = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "s":
            raise BraidSyntaxError(f"expected 's1' or 's2', saw {text[i]!r}", i)
        if i + 1 >= n or text[i + 1] not in "12":
            raise BraidSyntaxError("generator must be s1 or s2", i)
        gen = int(text[i + 1])
        i += 2
        exp = 1
        if i < n and text[i] == "^":
            start = i + 1
            j = start
            if j < n and text[j] in "+-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            if j == start or (j == start + 1 and not text[start].isdigit()):
                raise BraidSyntaxError("exponent expected after '^'", i)
            exp = int(text[start:j])
            if exp == 0:
                raise BraidSyntaxError("zero exponent is not allowed", start)
            i = j
        raw.append((gen, exp))
    return BraidWord(_reduce_syllables(raw))


def reverse_braid(word: BraidWord) -> BraidWord:
    """Reverse the order of the letters; exponents are unchanged."""
    return BraidWord(tuple(reversed(word.syllables)))


# The braid whose closure is the knot 8_17, the smallest non-invertible
# knot; its trace gap against the reversed word is the detection statistic.
EIGHT_SEVENTEEN = parse_braid("s1^-2 s2 s1^-1 s2 s1^-1 s2^2")


class B3Rep:
    """Pair of invertible matrices (X1, X2) satisfying the braid relation
    with central scalar 1.  Generator inverses are cached because braid
    words are short but exact inversion is the expensive step."""

    __slots__ = ("n", "X1", "X2", "_inv1", "_inv2")

    def __init__(self, X1: CycMatrix, X2: CycMatrix):
        if not X1.is_square() or X1.shape != X2.shape:
            raise ShapeError("generator images must be square of equal size")
        self.n = X1.rows
        self.X1 = X1
        self.X2 = X2
        self._inv1 = None
        self._inv2 = None

    def generator_inverse(self, gen: int) -> CycMatrix:
        if gen == 1:
            if self._inv1 is None:
                self._inv1 = self.X1.inverse()
            return self._inv1
        if self._inv2 is None:
            self._inv2 = self.X2.inverse()
        return self._inv2

    def check_relations(self) -> None:
        """Raise unless the braid and pinned central relations hold exactly."""
        ident = CycMatrix.identity(self.n)
        x12 = self.X1 @ self.X2
        s = x12 @ self.X1
        if s != self.X2 @ self.X1 @ self.X2:
            raise ValueError("braid relation X1 X2 X1 = X2 X1 X2 fails")
        if x12 @ x12 @ x12 != ident:
            raise ValueError("central relation (X1 X2)^3 = I fails")
        if s @ s != ident:
            raise ValueError("central relation (X1 X2 X1)^2 = I fails")

    def __eq__(self, other) -> bool:
        if not isinstance(other, B3Rep):
            return NotImplemented
        return self.X1 == other.X1 and self.X2 == other.X2

    def __repr__(self) -> str:
        return f"B3Rep(n={self.n})"

    def to_obj(self) -> dict:
        return {"n": self.n, "X1": self.X1.to_obj(), "X2": self.X2.to_obj()}

    @classmethod
    def from_obj(cls, obj: dict) -> "B3Rep":
        """A representation read from a file; unlike the constructor, this
        checks the braid and central relations (``check_relations``)."""
        try:
            rep = cls(_read_at("X1", CycMatrix.from_obj, obj["X1"]),
                      _read_at("X2", CycMatrix.from_obj, obj["X2"]))
            n = obj.get("n", rep.n)
            if type(n) is not int or n != rep.n:  # bool is not a size
                raise ValueError(f"declared size {n!r} is not the integer {rep.n}")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed representation object: {exc}") from exc
        rep.check_relations()
        return rep


def build_rep(V: QuiverRep) -> B3Rep:
    """Generator images recovered from the base-change matrix."""
    d = V.dims
    D = CycMatrix.diagonal([ONE] * d.x + [RHO2] * d.y + [RHO] * d.z)
    J = _sign_matrix(d)
    core = V.B.inverse() @ D @ V.B
    return B3Rep(core @ J, J @ core)


def _sign_matrix(d: DimVector) -> CycMatrix:
    return CycMatrix.diagonal([ONE] * d.a + [CycRat(-1)] * d.b)


def tau_rep(phi: B3Rep) -> B3Rep:
    """Transpose involution on representations: (X1, X2) -> (X1^tr, X2^tr)."""
    return B3Rep(phi.X1.transpose(), phi.X2.transpose())


def _power(phi: B3Rep, gen: int, exp: int) -> CycMatrix:
    base = (phi.X1 if gen == 1 else phi.X2) if exp > 0 else phi.generator_inverse(gen)
    k = abs(exp)
    result = None
    square = base
    while k:
        if k & 1:
            result = square if result is None else result @ square
        k >>= 1
        if k:
            square = square @ square
    return result


def evaluate(phi: B3Rep, word: BraidWord) -> CycMatrix:
    """Image of a braid word; the empty word maps to the identity."""
    acc = None
    for gen, exp in word.syllables:
        power = _power(phi, gen, exp)
        acc = power if acc is None else acc @ power
    return CycMatrix.identity(phi.n) if acc is None else acc


def trace_of(phi: B3Rep, word: BraidWord) -> CycRat:
    """Trace of the image of a braid word; of the last product only the
    diagonal is formed."""
    if not word.syllables:
        return CycRat(phi.n)
    *head, (gen, exp) = word.syllables
    return evaluate(phi, BraidWord(tuple(head))).trace_of_product(_power(phi, gen, exp))


def is_simple(phi: B3Rep) -> bool:
    """Whether the matrices generate the full n x n algebra.

    The span of {I, X1, X2} is closed under left multiplication by the
    generators until its dimension stalls; the representation is simple
    iff the final dimension is n^2 (the algebra generated by invertible
    matrices contains their inverses, so words in X1, X2 suffice).

    A reduction mod p can only lower the span dimension, so full rank mod
    p certifies simplicity; anything less falls back to the exact
    computation.
    """
    reduced = _modp.reduce_mod(phi.X1, phi.X2)
    if reduced is not None:
        p, (a1, a2) = reduced
        if _modp.burnside_rank_mod(a1, a2, p) == phi.n * phi.n:
            return True
    return _burnside_rank_exact(phi) == phi.n * phi.n


def _burnside_rank_exact(phi: B3Rep) -> int:
    """The Q(w) instance of ``span_closure_dim``: the exact reference for
    ``_modp.burnside_rank_mod``.

    The echelon basis holds integer rows: each word is flattened to a
    vector over Z[w], and a basis row has a positive integer N at its
    pivot.  A candidate v is reduced by v <- N*v - v[piv]*row, row by row,
    and every vector is divided by its integer content after each step,
    which leaves its span as it is and keeps its entries small.  A new
    row is multiplied by the conjugate of its pivot, which turns the
    pivot into its norm, an integer.
    """
    n = phi.n
    full = n * n
    basis: list[tuple] = []  # (pivot column, re part, rh part)

    def insert(mat: CycMatrix) -> bool:
        v0, v1 = _primitive([a for row in mat.re for a in row],
                            [b for row in mat.rh for b in row])
        for piv, r0, r1 in basis:
            if v0[piv] or v1[piv]:
                _bareiss_row(v0, v1, r0, r1, (r0[piv], 0), (v0[piv], v1[piv]), (1, 0),
                             range(full))
                v0, v1 = _primitive(v0, v1)
        piv = next((j for j in range(full) if v0[j] or v1[j]), None)
        if piv is None:
            return False
        c0, c1 = v0[piv] - v1[piv], -v1[piv]
        basis.append((piv, *_primitive([a * c0 - b * c1 for a, b in zip(v0, v1)],
                                       [a * c1 + b * c0 - b * c1 for a, b in zip(v0, v1)])))
        return True

    return span_closure_dim(CycMatrix.identity(n), (phi.X1, phi.X2), matmul,
                            insert, full)


def _primitive(v0: list, v1: list) -> tuple:
    """The Z[w] vector v0 + v1*w divided by the gcd of all its integers."""
    g = math.gcd(*v0, *v1)
    if g > 1:
        return [a // g for a in v0], [b // g for b in v1]
    return v0, v1


def recover_dimvector(phi: B3Rep) -> DimVector:
    """Eigenspace dimensions read off the order-2 and order-3 elements.

    S = X1 X2 X1 has eigenvalues +1, -1 with multiplicities a, b; the
    order-3 element T = X1 X2 has eigenvalues 1, w, w^2 with
    multiplicities x, y, z.  Multiplicities are kernel dimensions, i.e.
    size minus rank, computed exactly.
    """
    n = phi.n
    t = phi.X1 @ phi.X2
    s = t @ phi.X1
    ident = CycMatrix.identity(n)

    a = n - (s - ident).rank()
    b = n - (s + ident).rank()
    x = n - (t - ident).rank()
    y = n - (t - CycMatrix.scalar(n, RHO)).rank()
    z = n - (t - CycMatrix.scalar(n, RHO2)).rank()
    if a + b != n or x + y + z != n:
        raise ValueError(
            f"matrices are not a central-scalar-1 pair: eigenvalue "
            f"multiplicities ({a},{b};{x},{y},{z}) do not fill dimension {n}"
        )
    return DimVector(a, b, x, y, z)
