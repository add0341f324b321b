"""Classification of the simple components under the transpose involution.

Components of the n-dimensional semi-simple representation variety that
contain simple representations are labelled by dimension vectors
(a, b; x, y, z) with a + b = x + y + z = n, normalized so that a >= b and
x = max(x, y, z).  Swapping y and z gives a genuinely different component
(a mirror pair), so normalization never exchanges them.

The involution acts trivially exactly on

    (1,0;1,0,0),  (4,2;2,2,2),
    (k,k;k,k-1,1),  (k,k;k,1,k-1),
    (k+1,k;k,k,1),  (k+1,k;k,1,k)      for k >= 1,

each of dimension n; every other simple component detects braid reversion.
A test checks through n = 40 that a simple component is fixed exactly
when its dimension (``component_dimension``) is n, and that every
detecting one has dimension at least n + 2; this is checked, not proven.

``classify_component`` decides by a rule that equals the list on simple
vectors: detecting iff min(a, b) >= 3 and min(x, y, z) >= 2.  Every
member of the list has b <= 2 or a sink entry <= 1.  Conversely, take a
normalized simple vector with b <= 2 or a sink entry <= 1.  With a sink
entry 0 it has n <= 2: (1,0;1,0,0), (1,1;1,1,0) or (1,1;1,0,1).  Else
simplicity bounds every sink entry by b.  A sink entry 1 leaves two that
sum to a + b - 1, so a <= b + 1: the even and odd families and their
mirrors.  Otherwise the sink entries lie in [2, b] with b <= 2: (4,2;2,2,2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import DimVector, is_simple_dimvector

__all__ = [
    "ComponentReport",
    "normalize",
    "component_dimension",
    "detecting_rule",
    "classify_component",
    "enumerate_components",
]

FIXED = "fixed"
DETECTING = "detecting"
NOT_SIMPLE = "not_simple_component"


@dataclass(frozen=True)
class ComponentReport:
    """Classification of one component: its normalized dimension vector
    and the involution verdict, from which its size, simplicity and
    dimension (None when no simple representations exist) follow."""

    dims: DimVector
    verdict: str

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def simple(self) -> bool:
        return self.verdict != NOT_SIMPLE

    @property
    def component_dim(self) -> int | None:
        return component_dimension(self.dims) if self.simple else None

    def to_obj(self) -> dict:
        return {
            "dims": self.dims.to_obj(),
            "n": self.n,
            "simple": self.simple,
            "component_dim": self.component_dim,
            "verdict": self.verdict,
        }


def normalize(d: DimVector) -> DimVector:
    """Canonical form: a >= b and x maximal among (x, y, z).

    Only swaps of a, b and cyclic rotations of (x, y, z) are applied (the
    relabelings induced by twisting with one-dimensional representations),
    so the two members of a mirror pair stay distinct.  A vector whose x
    is already maximal is returned with (x, y, z) untouched; otherwise the
    rotation chosen is the one with lexicographically largest (y, z).
    """
    a, b = (d.a, d.b) if d.a >= d.b else (d.b, d.a)
    xyz = (d.x, d.y, d.z)
    top = max(xyz)
    if xyz[0] != top:
        rotations = [
            (d.y, d.z, d.x),
            (d.z, d.x, d.y),
        ]
        xyz = max(
            (r for r in rotations if r[0] == top),
            key=lambda r: (r[1], r[2]),
        )
    return DimVector(a, b, *xyz)


def component_dimension(d: DimVector) -> int:
    """Dimension of the component: 2 + 2ab - (x^2 + y^2 + z^2).

    The stratum of simple classes has dimension 1 + 2ab - (x^2+y^2+z^2)
    and the central scalar contributes one more.
    """
    if not is_simple_dimvector(d):
        raise ValueError(f"{d} is not the dimension vector of a simple component")
    return 2 + 2 * d.a * d.b - (d.x * d.x + d.y * d.y + d.z * d.z)


def detecting_rule(d: DimVector) -> bool:
    """Whether a simple component detects reversion: both source
    multiplicities at least 3 and every eigenvalue of the order-3
    generator at least double (the module docstring proves it)."""
    return min(d.a, d.b) >= 3 and min(d.x, d.y, d.z) >= 2


def classify_component(d: DimVector) -> ComponentReport:
    nd = normalize(d)
    if not is_simple_dimvector(nd):
        return ComponentReport(nd, NOT_SIMPLE)
    return ComponentReport(nd, DETECTING if detecting_rule(nd) else FIXED)


def enumerate_components(n: int) -> list:
    """All simple components in dimension n, normalized, sorted
    lexicographically; mirror pairs appear as two entries when distinct."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for a in range((n + 1) // 2, n + 1):
        b = n - a
        for x in range(n, -1, -1):
            for y in range(n - x + 1):
                z = n - x - y
                if x != max(x, y, z):
                    continue
                rep = classify_component(DimVector(a, b, x, y, z))
                if rep.simple:
                    out.append(rep)
    out.sort(key=lambda rep: rep.dims)
    return out
