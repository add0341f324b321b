"""Explicit families of base-change matrices and their fixed-point checks.

Each family constructor produces a QuiverRep on one of the components
where the transpose involution acts trivially (the even family and its
mirror, whose k = 1 member is the two-dimensional example; the odd
family; the exceptional (4,2;2,2,2) component) or where it provably does
not (the detecting (3,3;2,2,2) parametrization).  Verifiers either
check closed-form matrix identities exactly or fall back to the
isomorphism oracle, and always report which identities were checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import _modp
from .braid import build_rep, is_simple
from .cyclotomic import CycRat, TrivariatePoly, ZERO
from .linalg import (
    CycMatrix,
    ShapeError,
    SingularMatrixError,
    block_compose,
    block_diag,
    block_extract,
    pencil_det,
)
from .quiver import (
    DimVector,
    GLAlphaElement,
    QuiverRep,
    _is_witness,
    find_isomorphism,
    tau_quiver,
)

__all__ = [
    "SamplingError",
    "FamilySpec",
    "WitnessReport",
    "random_cycrat",
    "random_matrix",
    "random_invertible",
    "sample_stable_rep",
    "make_even_family",
    "verify_even_witness",
    "sample_even_matrix",
    "make_odd_family",
    "verify_odd_family",
    "make_dim6_detecting",
    "sample_dim6_params",
    "make_dim42_exceptional",
    "sample_dim42_params",
    "verify_dim42_family",
    "jumping_pencil",
]


class SamplingError(RuntimeError):
    """Random search failed to produce a valid family member."""


@dataclass(frozen=True)
class FamilySpec:
    """Which family, at which size/parameters/seed, a report refers to."""

    kind: str
    k: int | None = None
    parameters: tuple = ()
    seed: int | None = None

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "parameters": [str(p) for p in self.parameters],
            "seed": self.seed,
        }


@dataclass
class WitnessReport:
    """Outcome of one fixed-point verification: the identities checked,
    each a (name, ok) pair, and the witness g with act(g, V_{(B^-1)^tr})
    = V_B if one was checked exactly.  Detection has no report here:
    ``reversion`` prints its exact trace gap."""

    family: FamilySpec
    identities_checked: list = field(default_factory=list)
    witness: GLAlphaElement | None = None
    notes: str = ""

    @property
    def isomorphic(self) -> bool:
        """A witness is stored and every identity holds."""
        return self.witness is not None and all(ok for _, ok in self.identities_checked)

    def to_obj(self) -> dict:
        return {
            "family": self.family.to_obj(),
            "isomorphic": self.isomorphic,
            "identities": [
                {"name": name, "ok": ok} for name, ok in self.identities_checked
            ],
            "witness": self.witness.to_obj() if self.witness is not None else None,
            "notes": self.notes,
        }


# What a witness proves, by route (README, "What a verdict proves").
_ORACLE_NOTE = ("the oracle witness proves that this point's class is tau-fixed; the step to "
                "the whole component is the paper's dense-family argument, which is not checked")
_CLOSED_FORM_NOTE = (_ORACLE_NOTE.replace("oracle", "closed-form")
                     + "; witness reading: M1 = A^{-1}C (inverse of A C^{-1}; the two commute)")


# -- seeded sampling ---------------------------------------------------------
# Entries are u + v*w with u, v uniform integers in [-5, 5]: small heights
# keep exact elimination fast while staying generic.

def random_cycrat(rng: random.Random) -> CycRat:
    return CycRat(rng.randint(-5, 5), rng.randint(-5, 5))


def random_matrix(rng: random.Random, rows: int, cols: int) -> CycMatrix:
    return CycMatrix([[random_cycrat(rng) for _ in range(cols)] for _ in range(rows)])


# Samplers give up after this many draws, rather than loop forever on a
# request that no draw meets.
ATTEMPTS = 64


def _first_valid(draw, valid, what: str):
    """The first of ATTEMPTS values of ``draw()`` that passes ``valid``;
    raises SamplingError naming ``what`` if none does."""
    for _ in range(ATTEMPTS):
        value = draw()
        if valid(value):
            return value
    raise SamplingError(f"no {what} in {ATTEMPTS} attempts")


def random_invertible(rng: random.Random, n: int) -> CycMatrix:
    return _first_valid(lambda: random_matrix(rng, n, n), _modp.det_nonzero,
                        f"invertible {n}x{n} matrix")


def sample_stable_rep(dims: DimVector, rng: random.Random) -> QuiverRep:
    """Random representation with the given dimensions whose associated
    braid representation is simple; raises SamplingError on failure."""
    return _first_valid(lambda: QuiverRep(dims, random_matrix(rng, dims.n, dims.n)),
                        lambda V: _modp.det_nonzero(V.B) and is_simple(build_rep(V)),
                        f"stable representation with dims {dims}")


# -- even family and its mirror: B = [[I, I], [A, I]] -------------------------

def make_even_family(A: CycMatrix, mirror: bool = False) -> QuiverRep:
    """Block matrix [[I_k, I_k], [A, I_k]], for a k x k matrix A, as a
    representation with dimension vector (k, k; k, k-1, 1), or
    (k, k; k, 1, k-1) when ``mirror`` names the mirror component.  At
    k = 1 the mirror is the two-dimensional example B = [[1, 1], [a, 1]]
    on (1,1;1,1,0).

    Requires A and A - I invertible; the Schur complement of the top-left
    block is I - A, so the second condition is exactly invertibility of B.
    """
    if not A.is_square():
        raise ShapeError(f"A must be square, got {A.shape}")
    k = A.rows
    ident = CycMatrix.identity(k)
    if not _modp.det_nonzero(A):
        raise SingularMatrixError("A is singular")
    if not _modp.det_nonzero(A - ident):
        raise SingularMatrixError("A - I is singular")
    B = block_compose([[ident, ident], [A, ident]])
    y, z = (1, k - 1) if mirror else (k - 1, 1)
    return QuiverRep(DimVector(k, k, k, y, z), B)


def sample_even_matrix(rng: random.Random, k: int) -> CycMatrix:
    """Random symmetric A with A and A - I invertible.

    Symmetry makes C = (A - I)^{-1} symmetric, which is exactly the case
    in which the closed-form block identity for (B^{-1})^tr holds
    entrywise (for nonsymmetric A the same blocks appear transposed and
    the isomorphism is still found by the oracle).
    """
    ident = CycMatrix.identity(k)

    def draw() -> CycMatrix:
        entries = [[ZERO] * k for _ in range(k)]
        for i in range(k):
            entries[i][i] = random_cycrat(rng)
            for j in range(i + 1, k):
                v = random_cycrat(rng)
                entries[i][j] = v
                entries[j][i] = v
        return CycMatrix(entries)

    return _first_valid(draw, lambda A: _modp.det_nonzero(A) and _modp.det_nonzero(A - ident),
                        f"valid symmetric {k}x{k} matrix")


def verify_even_witness(A: CycMatrix, mirror: bool = False) -> WitnessReport:
    """Exact check of the closed-form fixed-point witness for the even family
    at the k x k matrix A, on (k, k; k, y, z) with (y, z) = (k-1, 1), or
    (1, k-1) on the mirror.

    With C = (A - I)^{-1} the checks are:

      (i)   (B^{-1})^tr equals [[-C, I+C], [C, -C]] entrywise;
      (ii)  B = diag(-A^{-1}, I_k) . (B^{-1})^tr . diag(C^{-1}A, -C^{-1});
      (iii) the left factor is diag(N1, N2, N3), block diagonal for (k, y, z);
      (iv)  the witness g = (A^{-1}C, -C; -A^{-1}, I_y, I_z) is
            invertible and satisfies act(g, V_{(B^{-1})^tr}) = V_B,
            multiplied out with no inverse, as find_isomorphism checks it.

    N2 and N3 together are I_k, so the split (y, z) does not enter: the
    same witness proves both components.  At k = 1 on the mirror, (ii)
    is the two-dimensional example's identity (B^{-1})^tr =
    diag(1, -1/a) . B . diag(1/(1-a), -a/(1-a)), rearranged.

    The source-side factor of the factorization is M1^{-1} = C^{-1}A, so
    the witness block is M1 = A^{-1}C; the alternative reading A C^{-1}
    is its inverse (A and C are rational functions of A, so they commute).
    """
    V = make_even_family(A, mirror)
    family = FamilySpec(
        "even_k_mirror" if mirror else "even_k", k=A.rows,
        parameters=tuple(v for row in A.entries for v in row),
    )
    ident = CycMatrix.identity(A.rows)
    C = (A - ident).inverse()
    W = tau_quiver(V)

    claim = block_compose([[-C, ident + C], [C, -C]])
    id_blockform = W.B == claim

    A_inv = A.inverse()
    C_inv = A - ident
    left = block_diag([-A_inv, ident])
    right = block_diag([C_inv @ A, -C_inv])
    id_factorization = V.B == left @ W.B @ right

    witness = GLAlphaElement(
        M1=A_inv @ C,
        M2=-C,
        N1=-A_inv,
        N2=CycMatrix.identity(V.dims.y),
        N3=CycMatrix.identity(V.dims.z),
    )
    id_left_blocks = left == witness.sink_matrix()
    id_action = witness.is_invertible() and _is_witness(witness, W, V)

    checks = [
        ("inverse_transpose_block_form", id_blockform),
        ("factorization", id_factorization),
        ("left_factor_row_blocks", id_left_blocks),
        ("witness_action", id_action),
    ]
    return WitnessReport(
        family=family,
        identities_checked=checks,
        witness=witness if id_action else None,
        notes=_CLOSED_FORM_NOTE,
    )


# -- odd family: dims (k+1, k; k, k, 1), random stable sample -----------------

def make_odd_family(k: int, seed: int) -> QuiverRep:
    """Seeded random stable representation with dimensions (k+1, k; k, k, 1).

    Resamples until B is invertible and the associated braid representation
    is simple; raises SamplingError after ATTEMPTS failures rather than
    silently returning a degenerate point.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return sample_stable_rep(DimVector(k + 1, k, k, k, 1), random.Random(seed))


def verify_odd_family(k: int, seed: int) -> WitnessReport:
    """Oracle verification (``_oracle_report``) at a stable odd-family point."""
    V = make_odd_family(k, seed)
    return _oracle_report(FamilySpec("odd_k", k=k, seed=seed), V, tau_quiver(V))


def _oracle_report(family: FamilySpec, V: QuiverRep, W: QuiverRep, checks=()) -> WitnessReport:
    """The oracle route at V, given W = tau V: ``checks``, then Hom(W, V),
    computed exactly with no closed form, must have dimension 1 and an
    invertible generator, which is the checked witness."""
    search = find_isomorphism(W, V)
    return WitnessReport(
        family=family,
        identities_checked=[*checks,
                            ("hom_dimension_one", search.hom_dim == 1),
                            ("oracle_witness", search.witness is not None)],
        witness=search.witness,
        notes=_ORACLE_NOTE,
    )


# -- the detecting component (3, 3; 2, 2, 2) ----------------------------------

def make_dim6_detecting(params) -> QuiverRep:
    """Parametrized dense family on the (3,3;2,2,2) component.

    ``params`` supplies the seven free entries (a, b, c, d, e, f, g) of
    the 6x6 base-change matrix below; the remaining entries are fixed.
    """
    a, b, c, d, e, f, g = _expect(params, 7)
    return _dense_point(DimVector(3, 3, 2, 2, 2), [
        [1, 0, 0, a, 0, f],
        [0, 1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, d, e],
        [0, 1, 0, b, c, 0],
        [g, 0, 1, 0, 0, 1],
    ])


def _dense_point(dims: DimVector, rows) -> QuiverRep:
    """The point of a dense family whose base change has these rows;
    raises SingularMatrixError if they are singular."""
    B = CycMatrix(rows)
    if not _modp.det_nonzero(B):
        raise SingularMatrixError("parameters give a singular base change")
    return QuiverRep(dims, B)


def sample_dim6_params(rng: random.Random) -> tuple:
    """Integer parameter points giving an invertible B and a simple rep."""
    return _sample_params(make_dim6_detecting,
                          lambda: tuple(CycRat(rng.randint(-5, 5)) for _ in range(7)))


def _sample_params(make, draw) -> tuple:
    """The first drawn parameters for which ``make`` gives a simple rep."""
    def valid(params) -> bool:
        try:
            V = make(params)
        except SingularMatrixError:
            return False
        return is_simple(build_rep(V))

    return _first_valid(draw, valid, "generic parameter point")


# -- the exceptional component (4, 2; 2, 2, 2) --------------------------------

def make_dim42_exceptional(params) -> QuiverRep:
    """Parametrized dense family on the (4,2;2,2,2) component.

    ``params`` supplies the five free entries (a, b, c, d, e) of the 6x6
    base-change matrix below.
    """
    a, b, c, d, e = _expect(params, 5)
    return _dense_point(DimVector(4, 2, 2, 2, 2), [
        [1, 0, 0, 0, a, 0],
        [0, 1, e, 1, 0, 1],
        [1, c, d, 0, 1, 0],
        [0, 0, 0, 1, 0, b],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ])


def sample_dim42_params(rng: random.Random) -> tuple:
    return _sample_params(make_dim42_exceptional,
                          lambda: tuple(random_cycrat(rng) for _ in range(5)))


def verify_dim42_family(params) -> WitnessReport:
    """Oracle verification (``_oracle_report``) at one point.  The cokernel
    partition sum_i C_i2 B_i2 = I_b and the jumping-lines match hold by
    construction for any B, so they check only the exact arithmetic.  V's
    pencil products serve both."""
    V = make_dim42_exceptional(params)
    W = tau_quiver(V)
    first, second, third = _pencil_products(V)
    checks = [
        ("cokernel_partition_identity", first + second + third == CycMatrix.identity(V.dims.b)),
        ("jumping_lines_match", jumping_pencil(W) == pencil_det(first, second, third)),
    ]
    return _oracle_report(FamilySpec("dim42_exceptional", parameters=tuple(params)),
                          V, W, checks)


# -- jumping lines for dims (2n, n; n, n, n) ----------------------------------

def _pencil_products(V: QuiverRep) -> list:
    """The three products C_12 B_12, C_22 B_22, C_32 B_32.

    For dims (2n, n; n, n, n) the maps (B_12, B_22, B_32) are the b-column
    blocks of B, embedding the b-summand into the three sink spaces, and
    (C_12, C_22, C_32), the b-row blocks of B^{-1}, project back from them.
    Their sum is I_b, because B^{-1} B = I.
    """
    d = V.dims
    nb = d.b
    if not (nb >= 1 and d.a == 2 * nb and d.x == d.y == d.z == nb):
        raise ShapeError(f"dims {d} are not of the shape (2n, n; n, n, n)")
    b_inv = V.B.inverse()
    return [block_extract(b_inv, d.source_blocks, d.sink_blocks, 1, i)
            @ block_extract(V.B, d.sink_blocks, d.source_blocks, i, 1) for i in range(3)]


def jumping_pencil(V: QuiverRep) -> TrivariatePoly:
    """det(C_12 B_12 x + C_22 B_22 y + C_32 B_32 z), exactly.

    tau(V) has the same pencil for every B: its products C_i2 B_i2 are the
    transposes of V's, and det(M^tr) = det(M)."""
    return pencil_det(*_pencil_products(V))


def _expect(params, count: int):
    params = tuple(params)
    if len(params) != count:
        raise ValueError(f"expected {count} parameters, got {len(params)}")
    return params
