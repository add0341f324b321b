"""Explicit families of base-change matrices and their fixed-point checks.

Each family constructor produces a QuiverRep on one of the components
where the transpose involution acts trivially (even, odd, the exceptional
(4,2;2,2,2) component, the two-dimensional example) or where it provably
does not (the detecting (3,3;2,2,2) parametrization).  Verifiers either
check closed-form matrix identities exactly or fall back to the
isomorphism oracle, and always report which identities were checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import _modp
from .braid import EIGHT_SEVENTEEN, build_rep, is_simple, reverse_braid, trace_of
from .cyclotomic import CycRat, ONE, TrivariatePoly, ZERO, poly_proportional
from .linalg import (
    CycMatrix,
    ShapeError,
    SingularMatrixError,
    _as_cycrat,
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
    "verify_dim6_detection",
    "make_dim42_exceptional",
    "sample_dim42_params",
    "verify_dim42_family",
    "jumping_pencil",
    "jumping_lines_check",
    "cokernel_partition",
    "sample_twodim_param",
    "verify_two_dim_example",
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
    """Outcome of one family verification: the identities checked, each a
    (name, ok) pair, and the witness g with act(g, V_{(B^-1)^tr}) = V_B if
    one was checked exactly."""

    family: FamilySpec
    identities_checked: list = field(default_factory=list)
    witness: GLAlphaElement | None = None
    notes: str = ""
    traces: tuple | None = None

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
            "traces": (
                {"b": str(self.traces[0]), "b_rev": str(self.traces[1])}
                if self.traces is not None
                else None
            ),
            "notes": self.notes,
        }


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


# -- even family: dims (k, k; k, k-1, 1), B = [[I, I], [A, I]] ----------------

def make_even_family(k: int, A: CycMatrix) -> QuiverRep:
    """Block matrix [[I_k, I_k], [A, I_k]] as a representation with
    dimension vector (k, k; k, k-1, 1).

    Requires A and A - I invertible; the Schur complement of the top-left
    block is I - A, so the second condition is exactly invertibility of B.
    """
    if A.shape != (k, k):
        raise ShapeError(f"A must be {k}x{k}, got {A.shape}")
    ident = CycMatrix.identity(k)
    if not _modp.det_nonzero(A):
        raise SingularMatrixError("A is singular", A.rank())
    if not _modp.det_nonzero(A - ident):
        raise SingularMatrixError("A - I is singular", (A - ident).rank())
    B = block_compose([[ident, ident], [A, ident]])
    return QuiverRep(DimVector(k, k, k, k - 1, 1), B)


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


def verify_even_witness(k: int, A: CycMatrix) -> WitnessReport:
    """Exact check of the closed-form fixed-point witness for the even family.

    With C = (A - I)^{-1} the checks are:

      (i)   (B^{-1})^tr equals [[-C, I+C], [C, -C]] entrywise;
      (ii)  B = diag(-A^{-1}, I_k) . (B^{-1})^tr . diag(C^{-1}A, -C^{-1});
      (iii) the left factor is block diagonal for row blocks (k, k-1, 1);
      (iv)  the witness g = (A^{-1}C, -C; -A^{-1}, I_{k-1}, I_1) is
            invertible and satisfies act(g, V_{(B^{-1})^tr}) = V_B,
            multiplied out with no inverse, as find_isomorphism checks it.

    The source-side factor of the factorization is M1^{-1} = C^{-1}A, so
    the witness block is M1 = A^{-1}C; the alternative reading A C^{-1}
    is its inverse (A and C are rational functions of A, so they commute).
    """
    V = make_even_family(k, A)
    family = FamilySpec(
        "even_k", k=k, parameters=tuple(v for row in A.entries for v in row)
    )
    ident = CycMatrix.identity(k)
    C = (A - ident).inverse()
    W = tau_quiver(V)

    claim = block_compose([[-C, ident + C], [C, -C]])
    id_blockform = W.B == claim

    A_inv = A.inverse()
    C_inv = A - ident
    left = block_diag([-A_inv, ident])
    right = block_diag([C_inv @ A, -C_inv])
    id_factorization = V.B == left @ W.B @ right

    sink = (k, k - 1, 1)
    id_left_blocks = all(
        block_extract(left, sink, sink, i, j).is_zero()
        for i in range(3)
        for j in range(3)
        if i != j
    )

    witness = GLAlphaElement(
        M1=A_inv @ C,
        M2=-C,
        N1=-A_inv,
        N2=CycMatrix.identity(k - 1),
        N3=CycMatrix.identity(1),
    )
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
        notes="witness reading: M1 = A^{-1}C (inverse of A C^{-1}; the two commute)",
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
    """Oracle verification that a stable odd-family point is fixed.

    No closed-form witness is used: the hom space between V_B and
    V_{(B^{-1})^tr} is computed exactly, must have dimension 1, and its
    generator must be invertible, giving a checked witness.
    """
    V = make_odd_family(k, seed)
    W = tau_quiver(V)
    search = find_isomorphism(W, V, random.Random(seed))
    checks = [
        ("hom_dimension_one", search.hom_dim == 1),
        ("oracle_witness", search.witness is not None),
    ]
    return WitnessReport(
        family=FamilySpec("odd_k", k=k, seed=seed),
        identities_checked=checks,
        witness=search.witness,
        notes="fixedness established by the isomorphism oracle on a stable sample",
    )


# -- the detecting component (3, 3; 2, 2, 2) ----------------------------------

def make_dim6_detecting(params) -> QuiverRep:
    """Parametrized dense family on the (3,3;2,2,2) component.

    ``params`` supplies the seven free entries (a, b, c, d, e, f, g) of
    the 6x6 base-change matrix below; the remaining entries are fixed.
    """
    a, b, c, d, e, f, g = [_as_cycrat(p) for p in _expect(params, 7)]
    one, zero = ONE, ZERO
    B = CycMatrix(
        [
            [one, zero, zero, a, zero, f],
            [zero, one, one, zero, one, zero],
            [one, one, zero, one, zero, zero],
            [zero, zero, one, zero, d, e],
            [zero, one, zero, b, c, zero],
            [g, zero, one, zero, zero, one],
        ]
    )
    if not _modp.det_nonzero(B):
        raise SingularMatrixError("parameters give a singular base change", B.rank())
    return QuiverRep(DimVector(3, 3, 2, 2, 2), B)


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


def verify_dim6_detection(params, rng: random.Random | None = None) -> WitnessReport:
    """Cross-check the two certificates that (3,3;2,2,2) is not fixed.

    The oracle must find no witness against the transpose image, and the
    detection braid must separate from its reverse; the two answers have
    to agree (a representation isomorphic to its transpose cannot
    separate any word from its reverse).  ``isomorphic`` is False on
    success; the exact trace pair is recorded.
    """
    V = make_dim6_detecting(params)
    search = find_isomorphism(V, tau_quiver(V), rng)
    phi = build_rep(V)
    t_fwd = trace_of(phi, EIGHT_SEVENTEEN)
    t_rev = trace_of(phi, reverse_braid(EIGHT_SEVENTEEN))
    separated = t_fwd != t_rev
    no_witness = search.witness is None and not search.inconclusive
    checks = [
        ("oracle_finds_no_witness", no_witness),
        ("trace_separation", separated),
        ("certificates_agree", no_witness == separated),
    ]
    return WitnessReport(
        family=FamilySpec("dim6_detecting", parameters=tuple(params)),
        identities_checked=checks,
        notes="detecting component: success means no witness and a trace gap",
        traces=(t_fwd, t_rev),
    )


# -- the exceptional component (4, 2; 2, 2, 2) --------------------------------

def make_dim42_exceptional(params) -> QuiverRep:
    """Parametrized dense family on the (4,2;2,2,2) component.

    ``params`` supplies the five free entries (a, b, c, d, e) of the 6x6
    base-change matrix below.
    """
    a, b, c, d, e = [_as_cycrat(p) for p in _expect(params, 5)]
    one, zero = ONE, ZERO
    B = CycMatrix(
        [
            [one, zero, zero, zero, a, zero],
            [zero, one, e, one, zero, one],
            [one, c, d, zero, one, zero],
            [zero, zero, zero, one, zero, b],
            [zero, one, zero, zero, one, zero],
            [zero, zero, one, zero, zero, one],
        ]
    )
    if not _modp.det_nonzero(B):
        raise SingularMatrixError("parameters give a singular base change", B.rank())
    return QuiverRep(DimVector(4, 2, 2, 2, 2), B)


def sample_dim42_params(rng: random.Random) -> tuple:
    return _sample_params(make_dim42_exceptional,
                          lambda: tuple(random_cycrat(rng) for _ in range(5)))


def verify_dim42_family(params, rng: random.Random | None = None) -> WitnessReport:
    """Oracle witness with hom dimension 1 at one point, the proof of
    fixedness.  The cokernel partition and the jumping-lines match hold by
    construction for any B, so they check only the exact arithmetic."""
    V = make_dim42_exceptional(params)
    W = tau_quiver(V)
    partition_ok = cokernel_partition(V) == CycMatrix.identity(V.dims.b)
    jumping_ok = jumping_lines_check(V)
    search = find_isomorphism(W, V, rng)
    checks = [
        ("cokernel_partition_identity", partition_ok),
        ("jumping_lines_match", jumping_ok),
        ("hom_dimension_one", search.hom_dim == 1),
        ("oracle_witness", search.witness is not None),
    ]
    return WitnessReport(
        family=FamilySpec("dim42_exceptional", parameters=tuple(params)),
        identities_checked=checks,
        witness=search.witness,
        notes="fixedness via oracle; jumping-lines pencil compared exactly",
    )


# -- jumping lines for dims (2n, n; n, n, n) ----------------------------------

def _bundle_blocks(V: QuiverRep):
    """The three b-column blocks of B and b-row blocks of B^{-1}.

    For dims (2n, n; n, n, n) the maps (B_12, B_22, B_32) embed the
    b-summand into the three sink spaces and (C_12, C_22, C_32) project
    back from them, with sum(C_i2 B_i2) = I_b coming from B^{-1} B = I.
    """
    d = V.dims
    nb = d.b
    if not (nb >= 1 and d.a == 2 * nb and d.x == d.y == d.z == nb):
        raise ShapeError(f"dims {d} are not of the shape (2n, n; n, n, n)")
    b_inv = V.B.inverse()
    bs = [block_extract(V.B, d.sink_blocks, d.source_blocks, i, 1) for i in range(3)]
    cs = [block_extract(b_inv, d.source_blocks, d.sink_blocks, 1, i) for i in range(3)]
    return bs, cs


def cokernel_partition(V: QuiverRep) -> CycMatrix:
    """sum_i C_i2 B_i2; equals I_b exactly because B^{-1} B = I."""
    bs, cs = _bundle_blocks(V)
    total = cs[0] @ bs[0]
    for i in (1, 2):
        total = total + cs[i] @ bs[i]
    return total


def jumping_pencil(V: QuiverRep) -> TrivariatePoly:
    """det(C_12 B_12 x + C_22 B_22 y + C_32 B_32 z), exactly."""
    bs, cs = _bundle_blocks(V)
    return pencil_det(cs[0] @ bs[0], cs[1] @ bs[1], cs[2] @ bs[2])


def jumping_lines_check(V: QuiverRep) -> bool:
    """Whether V and its transpose image have proportional jumping pencils:
    true for every V, detecting or fixed, since tau(V)'s products C_i2 B_i2
    are the transposes of V's and so the pencils are equal."""
    return poly_proportional(jumping_pencil(V), jumping_pencil(tau_quiver(V)))


# -- the two-dimensional example ----------------------------------------------

def sample_twodim_param(rng: random.Random) -> CycRat:
    """A random parameter for ``verify_two_dim_example``, avoiding 0 and 1."""
    return _first_valid(lambda: random_cycrat(rng), lambda a: a != ZERO and a != ONE,
                        "two-dimensional parameter outside {0, 1}")


def verify_two_dim_example(a) -> WitnessReport:
    """Exact fixed-point identity for B = [[1, 1], [a, 1]], dims (1,1;1,1,0).

    Checks (B^{-1})^tr = diag(1, -1/a) . B . diag(1/(1-a), -a/(1-a)) and
    the group action, multiplied out.  Requires a not in {0, 1}.
    """
    a = _as_cycrat(a)
    if a == ONE or not a:
        raise ValueError("parameter must avoid 0 and 1")
    one = ONE
    B = CycMatrix([[one, one], [a, one]])
    V = QuiverRep(DimVector(1, 1, 1, 1, 0), B)
    W = tau_quiver(V)

    inv_1ma = (one - a).inverse()
    left = CycMatrix.diagonal([one, -a.inverse()])
    right = CycMatrix.diagonal([inv_1ma, -a * inv_1ma])
    id_displayed = W.B == left @ B @ right

    # The identity above moves V to W; the reported witness is its inverse
    # so that it carries W = V_{(B^-1)^tr} back onto V_B.
    witness = GLAlphaElement(
        M1=CycMatrix([[inv_1ma]]),
        M2=CycMatrix([[a / (a - one)]]),
        N1=CycMatrix([[one]]),
        N2=CycMatrix([[-a]]),
        N3=CycMatrix.zeros(0, 0),
    )
    id_action = witness.is_invertible() and _is_witness(witness, W, V)

    checks = [("displayed_identity", id_displayed), ("witness_action", id_action)]
    return WitnessReport(
        family=FamilySpec("two_dim_example", parameters=(a,)),
        identities_checked=checks,
        witness=witness if id_action else None,
    )


def _expect(params, count: int):
    params = tuple(params)
    if len(params) != count:
        raise ValueError(f"expected {count} parameters, got {len(params)}")
    return params
