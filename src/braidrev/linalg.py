"""Dense exact linear algebra over Q(w).

Matrices carry optional row/column block annotations so that a single
n x n matrix can be read as a grid of sub-blocks (the representation data
of the 2x3 star quiver).  All algorithms are exact and share one
elimination kernel, ``_eliminate``: it pivots on the first nonzero entry
scanning down a column, which is legal over a field and keeps kernels and
inverses deterministic.  Determinant, rank, inverse and nullspace are read
off its result, and the determinant of a pencil is interpolated from
determinants and solved for with it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from .cyclotomic import CycRat, ONE, ZERO, TrivariatePoly, parse_cycrat

__all__ = [
    "ShapeError",
    "SingularMatrixError",
    "CycMatrix",
    "block_compose",
    "block_extract",
    "block_diag",
    "pencil_det",
]


class ShapeError(ValueError):
    """Operand shapes or block annotations are inconsistent."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix; ``rank`` holds the rank found."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


def _as_cycrat(value) -> CycRat:
    if isinstance(value, CycRat):
        return value
    return CycRat(value)


def _check_blocks(blocks, total, what) -> tuple | None:
    if blocks is None:
        return None
    blocks = tuple(int(s) for s in blocks)
    if any(s < 0 for s in blocks):
        raise ShapeError(f"negative size in {what} {blocks}")
    if sum(blocks) != total:
        raise ShapeError(f"{what} {blocks} do not sum to {total}")
    return blocks


class CycMatrix:
    """Dense matrix over Q(w) with optional block annotations.

    Instances are treated as immutable: every operation returns a new
    matrix, and ``entries`` must not be mutated after construction.
    Equality compares shape and entries only, never annotations.
    """

    __slots__ = ("rows", "cols", "entries", "row_blocks", "col_blocks")

    def __init__(self, entries: Sequence[Sequence], row_blocks=None, col_blocks=None):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = []
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows in matrix literal")
            data.append([_as_cycrat(v) for v in row])
        self.rows = rows
        self.cols = cols
        self.entries = data
        self.row_blocks = _check_blocks(row_blocks, rows, "row_blocks")
        self.col_blocks = _check_blocks(col_blocks, cols, "col_blocks")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, rows, cols, entries, row_blocks=None, col_blocks=None):
        # Trusted internal path: keeps explicit shape for zero-sized matrices.
        mat = cls.__new__(cls)
        mat.rows = rows
        mat.cols = cols
        mat.entries = entries
        mat.row_blocks = _check_blocks(row_blocks, rows, "row_blocks")
        mat.col_blocks = _check_blocks(col_blocks, cols, "col_blocks")
        return mat

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls._raw(
            n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CycMatrix":
        return cls._raw(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Iterable) -> "CycMatrix":
        vals = [_as_cycrat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n: int, c) -> "CycMatrix":
        return cls.diagonal([c] * n)

    def with_blocks(self, row_blocks=None, col_blocks=None) -> "CycMatrix":
        """Same entries, fresh block annotations."""
        return CycMatrix._raw(self.rows, self.cols, self.entries, row_blocks, col_blocks)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> CycRat:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"CycMatrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return CycMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.row_blocks,
            self.col_blocks,
        )

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {self.shape} and {other.shape}")
        return CycMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.row_blocks,
            self.col_blocks,
        )

    def __neg__(self) -> "CycMatrix":
        return self.scale(CycRat(-1))

    def scale(self, c) -> "CycMatrix":
        c = _as_cycrat(c)
        return CycMatrix(
            [[c * v for v in row] for row in self.entries],
            self.row_blocks,
            self.col_blocks,
        )

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        ocols = other.cols
        oentries = other.entries
        out = []
        for row in self.entries:
            acc = [ZERO] * ocols
            for k, v in enumerate(row):
                if not v:
                    continue
                orow = oentries[k]
                for j in range(ocols):
                    w = orow[j]
                    if w:
                        acc[j] = acc[j] + v * w
            out.append(acc)
        return CycMatrix._raw(
            self.rows, ocols, out, self.row_blocks, other.col_blocks
        )

    def transpose(self) -> "CycMatrix":
        """Entry (i, j) -> (j, i); block annotations swap roles."""
        flipped = [
            [self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)
        ]
        return CycMatrix._raw(
            self.cols, self.rows, flipped, self.col_blocks, self.row_blocks
        )

    def trace(self) -> CycRat:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        total = ZERO
        for i in range(self.rows):
            total = total + self.entries[i][i]
        return total

    # -- elimination-based operations ----------------------------------------

    def inverse(self) -> "CycMatrix":
        """Exact inverse via Gauss-Jordan elimination.

        The inverse of a base-change matrix maps the opposite way, so block
        annotations swap roles, as for ``transpose``.
        """
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.entries)]
        rank = len(_eliminate(work, n))
        if rank < n:
            raise SingularMatrixError("matrix is singular", rank)
        inv = [row[n:] for row in work]
        return CycMatrix(inv, row_blocks=self.col_blocks, col_blocks=self.row_blocks)

    def det(self) -> CycRat:
        """Exact determinant: the signed product of the forward-elimination pivots."""
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        rows = [list(row) for row in self.entries]
        work = list(rows)
        if len(_eliminate(work, n, reduce_up=False)) < n:
            return ZERO
        # _eliminate swaps the row lists of ``work``; the sign is the parity
        # of the permutation that takes ``rows`` to ``work``.
        origin = {id(row): i for i, row in enumerate(rows)}
        order = [origin[id(row)] for row in work]
        swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        det = math.prod((row[i] for i, row in enumerate(work)), start=ONE)
        return -det if swaps % 2 else det

    def rank(self) -> int:
        work = [list(row) for row in self.entries]
        return len(_eliminate(work, self.cols, reduce_up=False))

    def nullspace(self) -> list:
        """Basis of the right kernel as column vectors (n x 1 matrices).

        The basis is the standard one read off a reduced row echelon form:
        each free column yields a vector with leading coefficient 1 there,
        which keeps the output deterministic.
        """
        work = [list(row) for row in self.entries]
        pivots = _eliminate(work, self.cols)
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [ZERO] * self.cols
            vec[f] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][f]
            basis.append(CycMatrix([[v] for v in vec]))
        return basis

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        obj = {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in row] for row in self.entries],
        }
        if self.row_blocks is not None:
            obj["row_blocks"] = list(self.row_blocks)
        if self.col_blocks is not None:
            obj["col_blocks"] = list(self.col_blocks)
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "CycMatrix":
        try:
            rows = int(obj["rows"])
            cols = int(obj["cols"])
            raw = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        if len(raw) != rows or any(len(r) != cols for r in raw):
            raise ValueError(
                f"entry grid does not match declared shape {rows}x{cols}"
            )
        entries = [[parse_cycrat(v) for v in row] for row in raw]
        if rows == 0 or cols == 0:
            mat = cls.zeros(rows, cols)
        else:
            mat = cls(entries)
        return mat.with_blocks(obj.get("row_blocks"), obj.get("col_blocks"))


def _eliminate(work, ncols, reduce_up=True):
    """In-place row reduction of ``work`` over its first ``ncols`` columns.

    Rows may be wider than ``ncols`` (augmented systems); trailing columns
    ride along.  With ``reduce_up`` the result is the reduced row echelon
    form; without it, an echelon form whose pivots keep their values.
    Returns the list of pivot columns.
    """
    nrows = len(work)
    width = len(work[0]) if nrows else ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        pinv = prow[c].inverse()
        if reduce_up:
            for j in range(c, width):
                if prow[j]:
                    prow[j] = pinv * prow[j]
        span = range(nrows) if reduce_up else range(r + 1, nrows)
        for i in span:
            if i == r:
                continue
            f = work[i][c]
            if not f:
                continue
            if not reduce_up:
                f = f * pinv
            row = work[i]
            row[c] = ZERO
            for j in range(c + 1, width):
                if prow[j]:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def span_closure_dim(one, gens, mul, insert, full: int) -> int:
    """Dimension of the span of all words in ``gens``, over any field.

    Closes the span of ``one`` and ``gens`` under left multiplication, with
    ``mul(gen, mat)`` the product and ``insert(mat)`` adding ``mat`` to the
    caller's echelon basis and returning whether it was a new direction.
    The loop ends when no candidate is new or ``full`` is reached.
    """
    dim = 0
    queue = []
    for seed in (one, *gens):
        if insert(seed):
            dim += 1
            queue.append(seed)
    while queue and dim < full:
        mat = queue.pop()
        for gen in gens:
            child = mul(gen, mat)
            if insert(child):
                dim += 1
                queue.append(child)
                if dim == full:
                    break
    return dim


def block_compose(grid: Sequence[Sequence[CycMatrix]]) -> CycMatrix:
    """Assemble a grid of blocks into one annotated matrix.

    Block (i, j) must have the row count of its block-row and the column
    count of its block-column; the result carries the induced annotations.
    """
    if not grid or not grid[0]:
        raise ShapeError("empty block grid")
    row_blocks = tuple(row[0].rows for row in grid)
    col_blocks = tuple(blk.cols for blk in grid[0])
    for i, row in enumerate(grid):
        if len(row) != len(col_blocks):
            raise ShapeError("ragged block grid")
        for j, blk in enumerate(row):
            if blk.rows != row_blocks[i] or blk.cols != col_blocks[j]:
                raise ShapeError(
                    f"block ({i},{j}) is {blk.shape}, expected "
                    f"({row_blocks[i]},{col_blocks[j]})"
                )
    entries = []
    for i, row in enumerate(grid):
        for r in range(row_blocks[i]):
            out = []
            for blk in row:
                out.extend(blk.entries[r])
            entries.append(out)
    if not entries:
        return CycMatrix.zeros(0, sum(col_blocks)).with_blocks(row_blocks, col_blocks)
    return CycMatrix(entries, row_blocks=row_blocks, col_blocks=col_blocks)


def block_extract(mat: CycMatrix, row_block: int, col_block: int) -> CycMatrix:
    """Pull block (row_block, col_block) out of an annotated matrix."""
    if mat.row_blocks is None or mat.col_blocks is None:
        raise ShapeError("matrix has no block annotations")
    r0 = sum(mat.row_blocks[:row_block])
    c0 = sum(mat.col_blocks[:col_block])
    nr = mat.row_blocks[row_block]
    nc = mat.col_blocks[col_block]
    if nr == 0 or nc == 0:
        return CycMatrix.zeros(nr, nc)
    return CycMatrix(
        [[mat.entries[r0 + i][c0 + j] for j in range(nc)] for i in range(nr)]
    )


def block_diag(blocks: Sequence[CycMatrix]) -> CycMatrix:
    """Block-diagonal matrix from square blocks (zero-sized blocks allowed)."""
    sizes = []
    for blk in blocks:
        if not blk.is_square():
            raise ShapeError("block_diag needs square blocks")
        sizes.append(blk.rows)
    n = sum(sizes)
    entries = [[ZERO] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i in range(blk.rows):
            entries[off + i][off : off + blk.rows] = blk.entries[i]
        off += blk.rows
    return CycMatrix(entries, row_blocks=tuple(sizes), col_blocks=tuple(sizes))


def pencil_det(P: CycMatrix, Q: CycMatrix, R: CycMatrix) -> TrivariatePoly:
    """Determinant of the pencil P*x + Q*y + R*z as a homogeneous polynomial.

    A homogeneous polynomial of degree m is fixed by its values on the
    principal lattice {(i, j, m-i-j) : i, j >= 0, i + j <= m}, which is
    unisolvent for that space (Chung and Yao, 1977).  So the pencil's
    determinant is evaluated exactly at those (m+1)(m+2)/2 points, and its
    coefficients are the solution of the integer monomial system there,
    read off with that system's inverse (which depends only on m).
    """
    for M in (Q, R):
        if M.shape != P.shape:
            raise ShapeError("pencil matrices must share a shape")
    if not P.is_square():
        raise ShapeError("pencil matrices must be square")
    m = P.rows
    lattice = _principal_lattice(m)
    values = []
    for i, j, k in lattice:
        pencil = [
            [i * p + j * q + k * r for p, q, r in zip(prow, qrow, rrow)]
            for prow, qrow, rrow in zip(P.entries, Q.entries, R.entries)
        ]
        values.append([CycMatrix._raw(m, m, pencil).det()])
    coeffs = _monomial_inverse(m) @ CycMatrix._raw(len(lattice), 1, values)
    return TrivariatePoly(m, {mono: row[0] for mono, row in zip(lattice, coeffs.entries)})


def _principal_lattice(m: int) -> list:
    """The points (i, j, m-i-j); they double as the exponents of the monomials."""
    return [(i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)]


@functools.lru_cache(maxsize=None)
def _monomial_inverse(m: int) -> CycMatrix:
    """Inverse of the monomials of degree m evaluated on the principal lattice:
    row per lattice point, column per monomial."""
    lattice = _principal_lattice(m)
    return CycMatrix([[i ** a * j ** b * k ** c for a, b, c in lattice]
                      for i, j, k in lattice]).inverse()
