"""Internal modular fast paths.

Reducing an exact matrix modulo a prime p = 1 (mod 3) sends w to a cube
root of unity in F_p.  Ranks can only drop under such a reduction, so a
full-rank result mod p is an exact certificate; a deficient result is
not, and callers must fall back to exact arithmetic.  A vector lifted
p-adically from one factorisation mod p and rebuilt as rationals counts
only once it has been checked exactly.  Nothing in here ever replaces an
exact negative answer: every routine either certifies its answer or
reports "not certified" (None), and the caller then takes the exact path.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import CycRat, Rational
from .linalg import span_closure_dim

# The prime is below 2**PRIME_BITS.  A sum of n products of residues then
# stays below n * 2**52, which is exact in int64 while n < MAX_DIM.
PRIME_BITS = 26
MAX_DIM = 2 ** (63 - 2 * PRIME_BITS)

# The largest prime below 2**26 that is congruent to 1 mod 3, paired with a
# primitive cube root of unity mod p.
PRIME = (67108837, 57280852)


def within_headroom(n: int) -> bool:
    """Whether n x n products mod ``PRIME`` are exact in int64."""
    return n < MAX_DIM


def _embed(re, rh, p: int, rho_img: int):
    """Image in F_p of the integer array re + rh*w under w -> rho_img, as
    int64; ``re`` and ``rh`` may hold int64 or Python ints."""
    return ((re % p).astype(np.int64) + (rh % p).astype(np.int64) * rho_img) % p


def matrix_mod(mat, p: int, rho_img: int):
    """Image of a CycMatrix in F_p; p must not divide its denominator."""
    re, rh = (np.array(part, dtype=object).reshape(mat.rows, mat.cols)
              for part in (mat.re, mat.rh))
    return _embed(re, rh, p, rho_img) * pow(mat.den, -1, p) % p


def _rref_mod(a, p: int, order: list | None = None) -> list:
    """Reduce the int64 matrix ``a`` (entries in [0, p)) in place to its
    reduced row echelon form over F_p; returns the pivot columns.

    Row swaps are applied to ``order`` too, so that afterwards its first
    rank entries are the original rows the pivots came from: each pivot row
    is its original row plus earlier pivot rows, so those rows are
    independent mod p."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            if order is not None:
                order[r], order[piv] = order[piv], order[r]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            rest = a[hit, c:]
            rest -= np.einsum("i,j->ij", f[hit], a[r, c:])
            rest %= p
            a[hit, c:] = rest
        pivots.append(c)
        r += 1
    return pivots


def _inverse_mod(a, p: int):
    """Inverse of a square int64 matrix over F_p, or None if it is singular."""
    n = a.shape[0]
    work = np.hstack([a, np.eye(n, dtype=np.int64)])
    if _rref_mod(work, p) != list(range(n)):
        return None
    return work[:, n:].copy()


def reduce_mod(*mats):
    """The images of ``mats`` in F_p at ``PRIME``; None if p divides a
    denominator."""
    p, rho_img = PRIME
    if all(mat.den % p for mat in mats):
        return [matrix_mod(mat, p, rho_img) for mat in mats]
    return None


def det_nonzero(mat) -> bool:
    """Whether det(mat) != 0.

    True when the determinant is nonzero mod ``PRIME``, which certifies it
    is nonzero; otherwise the exact determinant decides.
    """
    if mat.is_square() and within_headroom(mat.rows):
        reduced = reduce_mod(mat)
        if reduced is not None and len(_rref_mod(reduced[0], PRIME[0])) == mat.rows:
            return True
    return bool(mat.det())


def burnside_rank_mod(a1, a2, p: int) -> int | None:
    """Dimension mod p of the span of all words in two n x n matrices.

    The F_p instance of ``span_closure_dim``, with an echelon basis of
    flattened matrices reduced mod p.  None (not certified) when n is too
    large for exact int64 products.
    """
    n = a1.shape[0]
    if not within_headroom(n):
        return None
    pivots: list[int] = []
    rows: list[np.ndarray] = []

    def insert(mat) -> bool:
        vec = mat.reshape(-1) % p
        for piv, row in zip(pivots, rows):
            c = int(vec[piv])
            if c:
                vec = (vec - c * row) % p
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(vec[piv]), p - 2, p)
        pivots.append(piv)
        rows.append((vec * inv) % p)
        return True

    return span_closure_dim(np.eye(n, dtype=np.int64), (a1, a2),
                            lambda gen, mat: (gen @ mat) % p, insert)


# -- certified kernels --------------------------------------------------------

def _wang(u: int, m: int, bound: int):
    """The fraction n/d = u (mod m) with |n|, d <= bound, or None
    (Wang, Guy and Davenport 1982; unique since 2 * bound**2 < m)."""
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues, m: int):
    """Rational values of ``residues`` mod m as (numerator, denominator)
    pairs, or None.  Denominators accumulate in one running multiple, so
    entries that share a denominator cost one multiplication each."""
    bound = math.isqrt((m - 1) // 2)
    common = 1
    out = []
    for u in residues:
        found = _wang(u * common % m, m, bound)
        if found is None:
            return None
        num, den = found
        den *= common
        if den > bound:
            return None
        common = den
        out.append((num, den))
    return out


def _hadamard(re, rh) -> int:
    """Product over the columns of the Z[w] matrix re + rh*w of
    max(1, |column|^2), with |a + b*w|^2 = a^2 - ab + b^2: a bound on
    |det|^2 of every square matrix made of some of its columns."""
    bound = 1
    for j in range(re.shape[1]):
        pairs = zip(re[:, j].tolist(), rh[:, j].tolist())
        bound *= max(1, sum(a * a - a * b + b * b for a, b in pairs))
    return bound


def _lift(block, rhs, p: int, rho: int):
    """Dixon lifting (Dixon 1982) of the square Z[w] system block . x = rhs,
    both given as integer arrays (re, rh), at one prime p = 1 (mod 3).

    Z[w]/p is F_p x F_p under w -> rho and w -> rho^2, so the block is
    inverted mod p under each root once.  Each step solves for the next
    p-adic digit a + b*w of x from the two images of the residual r, then
    updates r <- (r - block . digit) / p exactly; r stays int64 while
    2 * n * height * (p + 1) + |rhs| < 2^62 proves that safe, and is held
    in Python ints otherwise.  After each step the rational parts of x are
    rebuilt from x mod p^k and yielded as (numerator, denominator) pairs,
    real parts first, whenever they reconstruct.  By Cramer's rule and the
    Hadamard bound h on the block and rhs, every numerator is at most
    (2/sqrt(3)) * h and every denominator divides N(det) <= h, so once p^k
    exceeds 8/3 * h^2 the reconstruction is the exact solution and the
    lifting stops.  Nothing is yielded if the block is singular mod p.
    """
    rho2 = rho * rho % p
    invs = [_inverse_mod(_embed(*block, p, r), p) for r in (rho, rho2)]
    if invs[0] is None or invs[1] is None:
        return
    h = _hadamard(*block) * _hadamard(rhs[0][:, None], rhs[1][:, None])
    need = (4 * h * h + 2) // 3
    n = len(rhs[0])
    height, rhs_height = (max(int(np.abs(part).max(initial=0)) for part in pair)
                          for pair in (block, rhs))
    dtype = np.int64 if 2 * n * height * (p + 1) + rhs_height < 2 ** 62 else object
    a_re, a_rh = (part.astype(dtype, copy=False) for part in block)
    r_re, r_rh = (part.astype(dtype, copy=False) for part in rhs)
    acc = np.zeros(2 * n, dtype=object)
    modulus = 1
    w_inv = pow(rho - rho2, -1, p)
    while True:
        d1 = invs[0] @ _embed(r_re, r_rh, p, rho) % p
        d2 = invs[1] @ _embed(r_re, r_rh, p, rho2) % p
        # d1 = a + b*rho and d2 = a + b*rho^2
        b = (d1 - d2) * w_inv % p
        a = (d1 - b * rho) % p
        acc += np.concatenate([a, b]).astype(object) * modulus
        modulus *= p
        a, b = a.astype(dtype), b.astype(dtype)
        # block . (a + b*w) = (A a - B b) + (A b + B (a - b))*w
        r_re = (r_re - a_re @ a + a_rh @ b) // p
        r_rh = (r_rh - a_re @ b - a_rh @ (a - b)) // p
        values = _reconstruct(acc.tolist(), modulus)
        if values is not None:
            yield values
        if (modulus - 1) // 2 >= need:
            return


def hom_kernel(re, rh, certify):
    """Certified kernel of nullity at most one of the Z[w] matrix re + rh*w,
    given as integer arrays.

    The matrix is reduced mod p under w -> rho, with (p, rho) = ``PRIME``.  A
    nullity of 0 mod p certifies an empty kernel.  For a nullity of 1, the
    free column is the last nonzero coordinate of the kernel vector mod p;
    setting it to 1 and keeping the rows of the pivots leaves a square
    system, invertible mod p, whose solution is lifted p-adically
    (``_lift``).  ``certify(vec)`` checks a candidate kernel vector exactly
    and returns what the caller builds from it, or None.  A passing
    candidate certifies the kernel: 1 <= exact nullity <= nullity mod p = 1.
    With a 1 at its free column and zeros after it, the kernel vector is
    the one the exact reduced echelon form yields.

    Returns [] or [certify(vec)] when certified; None (not certified) when
    the nullity mod p is above 1, or when the lift certified nothing.
    """
    cols = re.shape[1]
    if not within_headroom(cols):
        return None
    p, rho = PRIME
    order = list(range(len(re)))
    pivots = _rref_mod(_embed(re, rh, p, rho), p, order)
    if len(pivots) == cols:
        return []
    if len(pivots) < cols - 1:
        return None
    (free,) = set(range(cols)).difference(pivots)
    rows = order[:cols - 1]
    keep = [c for c in range(cols) if c != free]
    for values in _lift((re[np.ix_(rows, keep)], rh[np.ix_(rows, keep)]),
                        (-re[rows, free], -rh[rows, free]), p, rho):
        half = len(values) // 2
        vec = [CycRat(Rational(*values[i]), Rational(*values[half + i]))
               for i in range(half)]
        vec.insert(free, CycRat(1))
        # The exact kernel vector has a 1 at the free column and zeros after it.
        if not any(vec[free + 1:]):
            result = certify(vec)
            if result is not None:
                return [result]
    return None
