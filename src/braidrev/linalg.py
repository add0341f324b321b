"""Dense exact linear algebra over Q(w).

A matrix is held as integers: (re + rh*w) / den with integer matrices re
and rh, packed into bytes, and one positive integer den, in the canonical
form in which den and the entries of re and rh have no common factor.
Equality and hashing compare those fields.  Products, sums and traces
are Python integer arithmetic, with w**2 = -1 - w and one gcd pass per
result; ``entries`` is a lazy view of the matrix as rows of ``CycRat``.

A matrix carries only its value.  Reading it as a grid of sub-blocks (the
representation data of the 2x3 star quiver) takes the block sizes from
the caller, as ``block_extract`` does.  Determinant, rank, inverse and
nullspace share one elimination kernel, ``_bareiss``: fraction-free
Gauss-Jordan over the integers Z[w] (Bareiss 1968), which divides exactly
by the previous pivot and pivots on the first nonzero entry scanning down
a column.  Their results are unique, so they do not depend on how they
were computed.  The determinant of a pencil is interpolated from
determinants.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

from .cyclotomic import CycRat, ZERO, TrivariatePoly, parse_cycrat

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
    """Operand shapes or block sizes are inconsistent."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix; ``rank`` holds the rank found."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


def _as_cycrat(value) -> CycRat:
    if isinstance(value, CycRat):
        return value
    return CycRat(value)


def _read_at(key: str, read, value):
    """``read(value)``; a ValueError it raises is raised again with ``key``,
    the JSON path ``value`` came from, in front of its message."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _cycrat(a: int, b: int, den: int) -> CycRat:
    return CycRat(Fraction(a, den), Fraction(b, den))


def _times(re, rh, c0: int, c1: int) -> tuple:
    """(re + rh*w) * (c0 + c1*w), entrywise on integer matrices."""
    out_re, out_rh = [], []
    for ra, rb in zip(re, rh):
        out_re.append([a * c0 - b * c1 for a, b in zip(ra, rb)])
        out_rh.append([a * c1 + b * c0 - b * c1 for a, b in zip(ra, rb)])
    return out_re, out_rh


def _int_product(left, right_t) -> list:
    """left @ right for integer matrices, with right given transposed."""
    return [[sum(map(mul, row, col)) for col in right_t] for row in left]


def _columns(mat: list, cols: int) -> list:
    return [[row[j] for row in mat] for j in range(cols)]


def _add(x: list, y: list) -> list:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _dot_trace(x: list, y_t: list) -> int:
    """Tr(x @ y), with y given transposed."""
    return sum(sum(map(mul, row, col)) for row, col in zip(x, y_t))


def _three_products(left, right, product) -> tuple:
    """product(A, C), product(B, D) and product(A + B, C + D) for left =
    (A + Bw)/d and right = (C + Dw)/d', with the right operands transposed."""
    a, b = left.re, left.rh
    c_t, d_t = _columns(right.re, right.cols), _columns(right.rh, right.cols)
    return product(a, c_t), product(b, d_t), product(_add(a, b), _add(c_t, d_t))


def _pack(part: list, width: int) -> bytes:
    return b"".join(x.to_bytes(width, "little", signed=True) for row in part for x in row)


def _unpack(buf: bytes, width: int, rows: int, cols: int) -> list:
    flat = [int.from_bytes(buf[k:k + width], "little", signed=True)
            for k in range(0, len(buf), width)]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


class CycMatrix:
    """Dense matrix over Q(w).

    The value is (re + rh*w) / den in canonical form: den > 0 and
    gcd(den, every entry of re and rh) = 1.  The integer matrices are kept
    packed, every entry in the same number of bytes (a quarter or less of
    the memory of lists of ints), and ``re`` and ``rh`` unpack fresh lists
    on each read.  Instances are immutable: every
    operation returns a new matrix, and ``entries`` must not be mutated.
    Equality compares shape and value.
    """

    __slots__ = ("rows", "cols", "den", "_width", "_re", "_rh", "_entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = []
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows in matrix literal")
            data.append([_as_cycrat(v) for v in row])
        den = math.lcm(*(q.denominator for row in data for v in row for q in (v.re, v.rh)))
        # Each part is reduced, so a prime power dividing den exactly leaves
        # some numerator coprime to it: the result is already canonical.
        self._store(rows, cols, den,
                    [[v.re.numerator * (den // v.re.denominator) for v in row] for row in data],
                    [[v.rh.numerator * (den // v.rh.denominator) for v in row] for row in data])

    def _store(self, rows, cols, den, re, rh) -> None:
        self.rows, self.cols, self.den = rows, cols, den
        self._width = max(map(int.bit_length, chain(*re, *rh)), default=0) // 8 + 1
        self._re, self._rh = _pack(re, self._width), _pack(rh, self._width)
        self._entries = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_parts(cls, rows, cols, den, re, rh, canonical=False) -> "CycMatrix":
        """The matrix (re + rh*w) / den, brought to canonical form unless the
        caller knows it already is; the shape is explicit for empty matrices."""
        if not canonical:
            g = math.gcd(den, *chain(*re), *chain(*rh))
            if g != 1:
                den //= g
                re = [[a // g for a in row] for row in re]
                rh = [[b // g for b in row] for row in rh]
        mat = cls.__new__(cls)
        mat._store(rows, cols, den, re, rh)
        return mat

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls._from_parts(n, n, 1, [[int(i == j) for j in range(n)] for i in range(n)],
                               [[0] * n for _ in range(n)], canonical=True)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CycMatrix":
        return cls._from_parts(rows, cols, 1, [[0] * cols for _ in range(rows)],
                               [[0] * cols for _ in range(rows)], canonical=True)

    @classmethod
    def diagonal(cls, values: Iterable) -> "CycMatrix":
        vals = [_as_cycrat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n: int, c) -> "CycMatrix":
        return cls.diagonal([c] * n)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def re(self) -> list:
        """The rational parts times ``den``, as rows of ints."""
        return _unpack(self._re, self._width, self.rows, self.cols)

    @property
    def rh(self) -> list:
        """The w parts times ``den``, as rows of ints."""
        return _unpack(self._rh, self._width, self.rows, self.cols)

    @property
    def entries(self) -> list:
        """Rows of ``CycRat`` values, built on first use and kept."""
        if self._entries is None:
            self._entries = [[_cycrat(a, b, self.den) for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.re, self.rh)]
        return self._entries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> CycRat:
        i, j = key
        return _cycrat(self.re[i][j], self.rh[i][j], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        # The packing width is a function of the value, so the bytes are too.
        return (self.shape == other.shape and self.den == other.den
                and self._re == other._re and self._rh == other._rh)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self._re, self._rh))

    def is_zero(self) -> bool:
        return not any(self._re) and not any(self._rh)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"CycMatrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, sign: int, verb: str) -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot {verb} {self.shape} and {other.shape}")
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        re, rh = ([[a * s + b * t for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]
                  for x, y in ((self.re, other.re), (self.rh, other.rh)))
        return CycMatrix._from_parts(self.rows, self.cols, den, re, rh)

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return self._combine(other, -1, "subtract")

    def __neg__(self) -> "CycMatrix":
        return self.scale(-1)

    def scale(self, c) -> "CycMatrix":
        c = CycMatrix([[c]])  # (c0 + c1 w) / d
        re, rh = _times(self.re, self.rh, c.re[0][0], c.rh[0][0])
        return CycMatrix._from_parts(self.rows, self.cols, self.den * c.den, re, rh)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        # Three integer products: with P = A.C, Q = B.D, S = (A+B)(C+D),
        # (A + Bw)(C + Dw) = (P - Q) + (S - P - 2Q) w since w^2 = -1 - w.
        p, q, s = _three_products(self, other, _int_product)
        re = [[x - y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)]
        rh = [[z - x - 2 * y for x, y, z in zip(rp, rq, rs)]
              for rp, rq, rs in zip(p, q, s)]
        return CycMatrix._from_parts(self.rows, other.cols, self.den * other.den, re, rh)

    def trace_of_product(self, other: "CycMatrix") -> CycRat:
        """Tr(self @ other), from the diagonal of the product alone."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ShapeError(f"trace of a non-square product {self.shape} by {other.shape}")
        p, q, s = _three_products(self, other, _dot_trace)
        return _cycrat(p - q, s - p - 2 * q, self.den * other.den)

    def transpose(self) -> "CycMatrix":
        """Entry (i, j) -> (j, i)."""
        return CycMatrix._from_parts(self.cols, self.rows, self.den,
                                     _columns(self.re, self.cols),
                                     _columns(self.rh, self.cols), canonical=True)

    def trace(self) -> CycRat:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        re, rh = self.re, self.rh
        return _cycrat(sum(re[i][i] for i in range(self.rows)),
                       sum(rh[i][i] for i in range(self.rows)), self.den)

    # -- elimination-based operations ----------------------------------------

    def inverse(self) -> "CycMatrix":
        """Exact inverse: the adjugate over the determinant, from Gauss-Jordan
        elimination of [self | I] with ``_bareiss``."""
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        work_re = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.re)]
        work_rh = [row + [0] * n for row in self.rh]
        pivots, (d0, d1), _ = _bareiss(work_re, work_rh, n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular", len(pivots))
        # For Z = den * self, [Z | I] is now [d I | d Z^{-1}], d the last pivot,
        # and self^{-1} = den Z^{-1}; dividing by d is multiplying by its
        # conjugate (d0 - d1) - d1 w over its norm.
        re, rh = _times([row[n:] for row in work_re], [row[n:] for row in work_rh],
                        self.den * (d0 - d1), -self.den * d1)
        return CycMatrix._from_parts(n, n, d0 * d0 - d0 * d1 + d1 * d1, re, rh)

    def det(self) -> CycRat:
        """Exact determinant: the last pivot of fraction-free forward
        elimination, signed by the parity of the row swaps."""
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        pivots, (d0, d1), swaps = _bareiss(self.re, self.rh, n, reduce_up=False)
        if len(pivots) < n:
            return ZERO
        sign = -1 if swaps % 2 else 1
        return _cycrat(sign * d0, sign * d1, self.den ** n)

    def rank(self) -> int:
        pivots, _, _ = _bareiss(self.re, self.rh, self.cols, reduce_up=False)
        return len(pivots)

    def nullspace(self) -> list:
        """Basis of the right kernel as column vectors (n x 1 matrices).

        The basis is the standard one read off a reduced row echelon form:
        each free column yields a vector with leading coefficient 1 there,
        which keeps the output deterministic.
        """
        work_re, work_rh = self.re, self.rh
        pivots, (d0, d1), _ = _bareiss(work_re, work_rh, self.cols)
        # Pivot rows hold d times the reduced echelon form, d the last pivot.
        pivot_set = set(pivots)
        norm = d0 * d0 - d0 * d1 + d1 * d1
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            vec_re = [0] * self.cols
            vec_rh = [0] * self.cols
            vec_re[f], vec_rh[f] = d0, d1
            for r, pc in enumerate(pivots):
                vec_re[pc], vec_rh[pc] = -work_re[r][f], -work_rh[r][f]
            re, rh = _times([[v] for v in vec_re], [[v] for v in vec_rh], d0 - d1, -d1)
            basis.append(CycMatrix._from_parts(self.cols, 1, norm, re, rh))
        return basis

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[str(v) for v in row] for row in self.entries]}

    @classmethod
    def from_obj(cls, obj: dict) -> "CycMatrix":
        """The matrix of a JSON object; other keys, such as the block
        annotations that older files carry, are ignored."""
        try:
            rows, cols, raw = obj["rows"], obj["cols"], obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        if type(rows) is not int or type(cols) is not int:  # bool is not a size
            raise ValueError(f"matrix rows and cols must be integers, got {rows!r}, {cols!r}")
        if (not isinstance(raw, list) or len(raw) != rows
                or any(not isinstance(r, list) or len(r) != cols for r in raw)):
            raise ValueError(f"entries are not a grid of the declared shape {rows}x{cols}")
        entries = [[_read_at(f"entries[{i}][{j}]", parse_cycrat, v) for j, v in enumerate(row)]
                   for i, row in enumerate(raw)]
        return cls(entries) if rows and cols else cls.zeros(rows, cols)


def _bareiss(work_re, work_rh, ncols, reduce_up=True):
    """Fraction-free row reduction over Z[w], in place, of the matrix with
    rows work_re[i] + work_rh[i]*w over its first ``ncols`` columns.

    Rows may be wider than ``ncols`` (augmented systems); trailing columns
    ride along.  A step with pivot p in column c turns every other row R
    into (p*R - R[c]*P) / q (``_bareiss_row``), P the pivot row and q the
    previous pivot (1 at first).  With ``reduce_up`` this is Gauss-Jordan:
    the pivot rows end as d times the reduced row echelon form, d the last
    pivot.  Without it only the rows below a pivot change, and the last
    pivot is the determinant of the row-permuted leading minor.  Returns
    the pivot columns, the last pivot (d0, d1) and the number of row swaps.
    """
    nrows = len(work_re)
    width = len(work_re[0]) if nrows else ncols
    pivots = []
    q = (1, 0)
    swaps = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work_re[i][c] or work_rh[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work_re[r], work_re[piv] = work_re[piv], work_re[r]
            work_rh[r], work_rh[piv] = work_rh[piv], work_rh[r]
            swaps += 1
        p = (work_re[r][c], work_rh[r][c])
        # Gauss-Jordan touches every column: an earlier pivot column then
        # comes out as p in its own row and 0 elsewhere, as it should.
        cols = range(width) if reduce_up else range(c, width)
        for i in range(nrows) if reduce_up else range(r + 1, nrows):
            if i != r:
                _bareiss_row(work_re[i], work_rh[i], work_re[r], work_rh[r], p,
                             (work_re[i][c], work_rh[i][c]), q, cols)
        pivots.append(c)
        q = p
        r += 1
        if r == nrows:
            break
    return pivots, q, swaps


def _bareiss_row(R0, R1, P0, P1, p, f, q, cols) -> None:
    """R <- (p*R - f*P) / q over ``cols``, in place, for rows of Z[w] held as
    lists of rational and w parts; p, f and q are (a, b) pairs for a + b*w.

    The division is exact when every entry is a minor of one matrix
    (Bareiss 1968).  It is a product with the conjugate of q,
    (q0 - q1) - q1*w, and an integer division by its norm q0^2 - q0*q1 + q1^2.
    """
    p0, p1 = p
    f0, f1 = f
    q0, q1 = q
    c0, c1, norm = q0 - q1, -q1, q0 * q0 - q0 * q1 + q1 * q1
    f_zero = not (f0 or f1)
    for j in cols:
        x0, x1, y0, y1 = R0[j], R1[j], P0[j], P1[j]
        if not (x0 or x1) and (f_zero or not (y0 or y1)):
            continue
        t = p1 * x1
        s = f1 * y1
        u0 = p0 * x0 - t - f0 * y0 + s
        u1 = p0 * x1 + p1 * x0 - t - f0 * y1 - f1 * y0 + s
        if q1:
            t = u1 * c1
            u0, u1 = (u0 * c0 - t) // norm, (u0 * c1 + u1 * c0 - t) // norm
        elif q0 != 1:
            u0 //= q0
            u1 //= q0
        R0[j] = u0
        R1[j] = u1


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
    """Assemble a grid of blocks into one matrix.

    Block (i, j) must have the row count of its block-row and the column
    count of its block-column.
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
    den = math.lcm(*(blk.den for row in grid for blk in row))
    re, rh = [], []
    for row in grid:
        parts = [(blk.re, blk.rh, den // blk.den) for blk in row]
        for r in range(row[0].rows):
            re.append([a * s for blk_re, _, s in parts for a in blk_re[r]])
            rh.append([b * s for _, blk_rh, s in parts for b in blk_rh[r]])
    return CycMatrix._from_parts(sum(row_blocks), sum(col_blocks), den, re, rh)


def block_extract(mat: CycMatrix, row_sizes: Sequence[int], col_sizes: Sequence[int],
                  i: int, j: int) -> CycMatrix:
    """Block (i, j) of ``mat`` read as a grid with the given row and column
    block sizes, which must sum to its shape."""
    if (sum(row_sizes), sum(col_sizes)) != mat.shape:
        raise ShapeError(f"block sizes {tuple(row_sizes)} x {tuple(col_sizes)} "
                         f"do not fit {mat.shape}")
    r0, c0, nr, nc = sum(row_sizes[:i]), sum(col_sizes[:j]), row_sizes[i], col_sizes[j]
    return CycMatrix._from_parts(nr, nc, mat.den, *([row[c0:c0 + nc] for row in part[r0:r0 + nr]]
                                                    for part in (mat.re, mat.rh)))


def block_diag(blocks: Sequence[CycMatrix]) -> CycMatrix:
    """Block-diagonal matrix from square blocks (zero-sized blocks allowed)."""
    if not all(blk.is_square() for blk in blocks):
        raise ShapeError("block_diag needs square blocks")
    return block_compose([[blk if i == j else CycMatrix.zeros(blk.rows, other.rows)
                           for j, other in enumerate(blocks)]
                          for i, blk in enumerate(blocks)])


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
    values = [[(P.scale(i) + Q.scale(j) + R.scale(k)).det()] for i, j, k in lattice]
    coeffs = _monomial_inverse(m) @ CycMatrix(values)
    return TrivariatePoly(m, {mono: coeffs[row, 0] for row, mono in enumerate(lattice)})


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
