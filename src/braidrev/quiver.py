"""Representations of the 2x3 bipartite star quiver over Q(w).

A representation is an invertible n x n base-change matrix B between two
decompositions of the same space: a source decomposition into blocks of
sizes (a, b) and a sink decomposition into blocks of sizes (x, y, z).
Base changes inside the five blocks act by

    B  |->  diag(N1, N2, N3) . B . diag(M1, M2)^{-1}

and two representations are isomorphic exactly when they lie in the same
orbit of that action.  The transpose involution sends B to (B^{-1})^tr.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from . import _modp
from .cyclotomic import CycRat
from .linalg import (
    CycMatrix,
    ShapeError,
    _read_at,
    block_diag,
    block_extract,
)

__all__ = [
    "DimVector",
    "QuiverRep",
    "GLAlphaElement",
    "IsomorphismSearch",
    "is_simple_dimvector",
    "act",
    "tau_quiver",
    "hom_space",
    "find_isomorphism",
]


@dataclass(frozen=True, order=True)
class DimVector:
    """Eigenspace dimension vector (a, b; x, y, z)."""

    a: int
    b: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        if min(self.a, self.b, self.x, self.y, self.z) < 0:
            raise ValueError(f"negative entry in dimension vector {self}")

    @property
    def n(self) -> int:
        return self.a + self.b

    def is_balanced(self) -> bool:
        return self.a + self.b == self.x + self.y + self.z

    @property
    def source_blocks(self) -> tuple:
        return (self.a, self.b)

    @property
    def sink_blocks(self) -> tuple:
        return (self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.x},{self.y},{self.z})"

    @classmethod
    def parse(cls, text: str) -> "DimVector":
        parts = [p.strip() for p in text.replace(";", ",").split(",")]
        if len(parts) != 5:
            raise ValueError(f"expected 5 comma-separated entries, got {text!r}")
        return cls(*(int(p) for p in parts))

    def to_obj(self) -> dict:
        return {"a": self.a, "b": self.b, "x": self.x, "y": self.y, "z": self.z}

    @classmethod
    def from_obj(cls, obj: dict) -> "DimVector":
        try:
            values = [obj[key] for key in "abxyz"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed dimension vector object: {exc}") from exc
        if any(type(v) is not int for v in values):  # bool is not an entry
            raise ValueError(f"dimension vector entries must be integers, got {values}")
        return cls(*values)


def is_simple_dimvector(d: DimVector) -> bool:
    """Whether a simple representation with these dimensions exists.

    For x*y*z != 0 the condition is max(x,y,z) <= min(a,b); the remaining
    simple dimension vectors are the one-dimensional ones and the
    two-dimensional ones with a = b = 1 and one sink dimension zero.
    """
    if not d.is_balanced():
        return False
    if d.x and d.y and d.z:
        return max(d.x, d.y, d.z) <= min(d.a, d.b)
    if d.n == 1:
        return True
    if d.n == 2:
        return d.a == d.b == 1 and sorted(d.sink_blocks) == [0, 1, 1]
    return False


class QuiverRep:
    """A dimension vector plus its invertible base-change matrix B.

    B is read in row blocks (x, y, z) and column blocks (a, b), the sizes
    ``dims.sink_blocks`` and ``dims.source_blocks``; B itself carries no
    layout.  Invertibility is relied on by every consumer; it is raised
    lazily by the elimination routines if violated.
    """

    __slots__ = ("dims", "B")

    def __init__(self, dims: DimVector, B: CycMatrix):
        if not dims.is_balanced():
            raise ShapeError(f"unbalanced dimension vector {dims}")
        if B.shape != (dims.n, dims.n):
            raise ShapeError(f"matrix {B.shape} does not match {dims} (n={dims.n})")
        self.dims = dims
        self.B = B

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return self.dims == other.dims and self.B == other.B

    def __hash__(self):
        return hash((self.dims, self.B))

    def __repr__(self) -> str:
        return f"QuiverRep(dims={self.dims}, B={self.B!r})"

    def to_obj(self) -> dict:
        return {"dims": self.dims.to_obj(), "B": self.B.to_obj()}

    @classmethod
    def from_obj(cls, obj: dict) -> "QuiverRep":
        """Quiver data read from a file; unlike the constructor, this checks
        that B is invertible and that the space is not zero."""
        try:
            V = cls(_read_at("dims", DimVector.from_obj, obj["dims"]),
                    _read_at("B", CycMatrix.from_obj, obj["B"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed quiver object: {exc}") from exc
        if V.dims.n == 0:
            raise ValueError(f"dimension vector {V.dims} is zero")
        if not _modp.det_nonzero(V.B):
            raise ValueError("base-change matrix B is singular")
        return V


@dataclass(frozen=True)
class GLAlphaElement:
    """Blockwise base change (M1, M2; N1, N2, N3), one block per vertex."""

    M1: CycMatrix
    M2: CycMatrix
    N1: CycMatrix
    N2: CycMatrix
    N3: CycMatrix

    def blocks(self) -> tuple:
        return (self.M1, self.M2, self.N1, self.N2, self.N3)

    def source_matrix(self) -> CycMatrix:
        return block_diag([self.M1, self.M2])

    def sink_matrix(self) -> CycMatrix:
        return block_diag([self.N1, self.N2, self.N3])

    def is_invertible(self) -> bool:
        return all(_modp.det_nonzero(blk) for blk in self.blocks())

    def scale(self, c: CycRat) -> "GLAlphaElement":
        return GLAlphaElement(*(blk.scale(c) for blk in self.blocks()))

    def add(self, other: "GLAlphaElement") -> "GLAlphaElement":
        return GLAlphaElement(*(s + o for s, o in zip(self.blocks(), other.blocks())))

    @classmethod
    def identity(cls, dims: DimVector) -> "GLAlphaElement":
        return cls(*(CycMatrix.identity(s)
                     for s in dims.source_blocks + dims.sink_blocks))

    def to_obj(self) -> dict:
        return {name: blk.to_obj() for name, blk in
                zip(("M1", "M2", "N1", "N2", "N3"), self.blocks())}


def _fits(g: GLAlphaElement, d: DimVector) -> bool:
    """Whether g's blocks are square of sizes (a, b, x, y, z)."""
    return all(blk.shape == (size, size)
               for blk, size in zip(g.blocks(), d.source_blocks + d.sink_blocks))


def act(g: GLAlphaElement, V: QuiverRep) -> QuiverRep:
    """Base-change action: B -> diag(N1,N2,N3) . B . diag(M1,M2)^{-1}.

    No program path calls this: witnesses are checked multiplied out, with
    no inverse, by ``_is_witness``.  Tests use it as that check's reference.
    """
    d = V.dims
    if not _fits(g, d):
        raise ShapeError(f"group element blocks do not fit {d}")
    m_inv = block_diag([g.M1.inverse(), g.M2.inverse()])
    newB = g.sink_matrix() @ V.B @ m_inv
    return QuiverRep(d, newB)


def tau_quiver(V: QuiverRep) -> QuiverRep:
    """Transpose involution on quiver data: B -> (B^{-1})^tr."""
    return QuiverRep(V.dims, V.B.inverse().transpose())


def hom_space(V: QuiverRep, W: QuiverRep) -> list:
    """Basis of the space of quiver morphisms V -> W.

    A morphism is a block tuple (M1, M2, N1, N2, N3), not necessarily
    invertible, satisfying diag(N1,N2,N3) . V.B = W.B . diag(M1,M2).
    Since V.B is invertible the sink side is determined by the source
    side: N = W.B . diag(M) . V.B^{-1} must be block diagonal, which is a
    linear condition on the entries of (M1, M2).  The returned basis is
    deterministic (reduced echelon form of that condition).

    The intertwiner system (``_hom_system``) is built once.  Hom spaces of
    dimension 0 or 1 are found by p-adic lifting at one prime and
    certified exactly (``_modp.hom_kernel``); any other case, or one the
    lifting cannot certify, is solved by exact elimination of the same
    system.  The basis is the same either way.
    """
    re, rh, element = _hom_setup(V, W)
    basis = _modp.hom_kernel(re, rh, element)
    return _exact_kernel(re, rh, element) if basis is None else basis


def _hom_space_exact(V: QuiverRep, W: QuiverRep) -> list:
    """``hom_space`` by exact elimination alone: the reference for the
    modular route."""
    return _exact_kernel(*_hom_setup(V, W))


def _hom_setup(V: QuiverRep, W: QuiverRep) -> tuple:
    """The intertwiner system (re, rh) of V -> W (``_hom_system``), and the
    function that reads a solution back as a morphism (``_hom_element``)."""
    if V.dims != W.dims:
        raise ShapeError(f"dimension vectors differ: {V.dims} vs {W.dims}")
    v_inv = V.B.inverse()
    return (*_hom_system(V.dims, W.B, v_inv),
            lambda flat: _hom_element(V.dims, W.B, v_inv, flat))


def _exact_kernel(re, rh, element) -> list:
    """``element`` of each exact reduced echelon kernel vector of re + rh*w."""
    mat = CycMatrix._from_parts(*re.shape, 1, re.tolist(), rh.tolist())
    return [element([v for (v,) in vec.entries]) for vec in mat.nullspace()]


def _hom_system(dims, wb, v_inv) -> tuple:
    """The intertwiner system of ``hom_space`` over Z[w], as integer arrays
    (re, rh): int64 when every entry provably fits, Python ints otherwise.

    One row per sink entry (r, c) off the block diagonal, in row-major
    order; one column per entry (k, l) of M1 then of M2, the layout
    ``_hom_element`` reads back.  The coefficient is W.B[r, k] *
    V.B^{-1}[l, c], entry (r, c) of W.B . E_kl . V.B^{-1}, times both
    denominators, which does not change the kernel.
    """
    sink = np.repeat(np.arange(3), dims.sink_blocks)
    rows, cols = np.nonzero(sink[:, None] != sink[None, :])
    parts = (wb.re, wb.rh, v_inv.re, v_inv.rh)
    w_height, v_height = (max(abs(x) for part in pair for row in part for x in row)
                          for pair in (parts[:2], parts[2:]))
    dtype = np.int64 if 3 * w_height * v_height < 2 ** 62 else object
    w_re, w_rh, v_re, v_rh = (np.array(part, dtype=dtype).reshape(dims.n, dims.n)
                              for part in parts)
    re = np.empty((len(rows), dims.a ** 2 + dims.b ** 2), dtype=dtype)
    rh = np.empty_like(re)
    at = 0
    for start, size in zip((0, dims.a), dims.source_blocks):
        block, span = slice(start, start + size), slice(at, at + size * size)
        at += size * size

        def outer(w, v):
            return (w[rows, block][:, :, None] * v[block, cols].T[:, None, :]
                    ).reshape(len(rows), size * size)

        # (a + b*w)(x + y*w) = (ax - by) + (ay + bx - by)*w, as w^2 = -1 - w
        by = outer(w_rh, v_rh)
        re[:, span] = outer(w_re, v_re) - by
        rh[:, span] = outer(w_re, v_rh) + outer(w_rh, v_re) - by
    return re, rh


def _hom_element(d: DimVector, wb: CycMatrix, v_inv: CycMatrix,
                 flat: list) -> GLAlphaElement | None:
    """The morphism with source blocks read from ``flat`` (M1 then M2, each
    row-major) and sink blocks from N = W.B . diag(M) . V.B^{-1}.

    None unless N is exactly block diagonal: that is the whole intertwiner
    system applied to ``flat``, and the certificate ``hom_kernel`` needs.
    """
    m_blocks = []
    pos = 0
    for size in d.source_blocks:
        m_blocks.append(CycMatrix([flat[pos + i * size : pos + (i + 1) * size]
                                   for i in range(size)]))
        pos += size * size
    prod = wb @ block_diag(m_blocks) @ v_inv
    n_blocks = [block_extract(prod, d.sink_blocks, d.sink_blocks, i, i) for i in range(3)]
    if prod != block_diag(n_blocks):
        return None
    return GLAlphaElement(*m_blocks, *n_blocks)


def _is_witness(g: GLAlphaElement, V: QuiverRep, W: QuiverRep) -> bool:
    """Whether act(g, V) == W for an invertible g, checked without inverses
    as the multiplied-out identity diag(N) . V.B == W.B . diag(M).

    The block sizes are checked first: blocks of another split of the same
    total sizes assemble the same diag(M) and diag(N), but act rejects them."""
    return (V.dims == W.dims and _fits(g, V.dims)
            and g.sink_matrix() @ V.B == W.B @ g.source_matrix())


@dataclass(frozen=True)
class IsomorphismSearch:
    """Outcome of a witness search: the witness (if any), the dimension of
    the hom space, and whether the search is inconclusive: no witness in a
    hom space of dimension above 1 (possible only for non-stable ones)."""

    witness: GLAlphaElement | None
    hom_dim: int

    @property
    def inconclusive(self) -> bool:
        return self.witness is None and self.hom_dim > 1


def find_isomorphism(V: QuiverRep, W: QuiverRep,
                     rng: random.Random | None = None) -> IsomorphismSearch:
    """Search the hom space for an invertible element.

    An invertible morphism g satisfies act(g, V) == W exactly, so any hit
    is a certified isomorphism witness; the identity is checked multiplied
    out, as diag(N) . V.B == W.B . diag(M).  For stable representations the
    hom space has dimension 0 or 1 and the first basis vector decides; for
    others up to 8 seeded random combinations of the basis are tried, and
    failure is flagged inconclusive rather than reported as a definitive
    "not isomorphic".
    """
    basis = hom_space(V, W)
    hom_dim = len(basis)
    rng = rng if rng is not None else random.Random(0)

    def combinations():
        # scaling cannot make a singular tuple invertible, so an exhausted
        # one-dimensional hom space is a definitive negative
        for _ in range(8 if hom_dim > 1 else 0):
            coeffs = [CycRat(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in basis]
            yield reduce(GLAlphaElement.add, map(GLAlphaElement.scale, basis, coeffs))

    for g in chain(basis, combinations()):
        if g.is_invertible():
            if not _is_witness(g, V, W):  # pragma: no cover - guaranteed by linear algebra
                raise AssertionError("invertible hom element is not a witness")
            return IsomorphismSearch(g, hom_dim)
    return IsomorphismSearch(None, hom_dim)
