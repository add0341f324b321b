"""Internal modular fast paths.

Reducing an exact matrix modulo a prime p = 1 (mod 3) sends w to a cube
root of unity in F_p.  Ranks can only drop under such a reduction, so a
full-rank result mod p is an exact certificate; a deficient result is
not, and callers must fall back to exact arithmetic.  A vector rebuilt
from its images mod many primes counts only once it has been checked
exactly.  Nothing in here ever replaces an exact negative answer: every
routine either certifies its answer or reports "not certified" (None),
and the caller then takes the exact path.
"""

from __future__ import annotations

import math
import threading
from itertools import islice

import numpy as np

from .cyclotomic import CycRat, Rational
from .linalg import span_closure_dim

# Every prime here is below 2**PRIME_BITS.  A sum of n products of residues
# then stays below n * 2**52, which is exact in int64 while n < MAX_DIM.
PRIME_BITS = 26
MAX_DIM = 2 ** (63 - 2 * PRIME_BITS)

# The six largest primes below 2**26 that are congruent to 1 mod 3, paired
# with a primitive cube root of unity mod p.  ``primes()`` continues the
# same sequence for the routines that need many primes.
PRIMES = (
    (67108837, 57280852),
    (67108819, 19491216),
    (67108777, 35787766),
    (67108753, 49922800),
    (67108747, 43921573),
    (67108729, 56779387),
)

# A one-dimensional kernel is rebuilt from at most this many primes before
# the exact path takes over (the odd family needs about 35 at k = 5).
MAX_PRIMES = 128


def within_headroom(n: int) -> bool:
    """Whether n x n products mod any prime here are exact in int64."""
    return n < MAX_DIM


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 decide n < 3215031751."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_below(q: int) -> tuple:
    """The largest prime p < q with p = 1 (mod 6), and a primitive cube root
    of unity mod p."""
    q -= 1
    q -= (q - 1) % 6
    while not _is_prime(q):
        q -= 6
    g = 2
    while pow(g, (q - 1) // 3, q) == 1:
        g += 1
    return q, pow(g, (q - 1) // 3, q)


_STREAM: list = []
_STREAM_LOCK = threading.Lock()


def primes():
    """Primes p = 1 (mod 3) below 2**26, largest first, each paired with a
    primitive cube root of unity mod p.

    The sequence starts with the primes of ``PRIMES``; it is generated on
    first use and cached, so importing this module costs nothing.
    """
    i = 0
    while True:
        if i == len(_STREAM):
            with _STREAM_LOCK:
                if i == len(_STREAM):
                    last = _STREAM[-1][0] if _STREAM else 2 ** PRIME_BITS
                    _STREAM.append(_prime_below(last))
        yield _STREAM[i]
        i += 1


def _scaled_parts(mat) -> tuple:
    """(D, re, rh) with D * mat = re + rh*w: the matrix's own denominator
    and integer parts as object arrays, so that reducing mod a prime needs
    one inverse."""
    def part(ints):
        return np.array(ints, dtype=object).reshape(mat.rows, mat.cols)

    return mat.den, part(mat.re), part(mat.rh)


def _parts_mod(parts, p: int):
    """(re mod p, rh mod p) as int64 arrays, or None if p divides D."""
    den, re, rh = parts
    if den % p == 0:
        return None
    return (re % p).astype(np.int64), (rh % p).astype(np.int64)


def _image(parts_mod, p: int, rho_img: int):
    re, rh = parts_mod
    return (re + rh * rho_img) % p


def matrix_mod(mat, p: int, rho_img: int):
    """Image of a CycMatrix in F_p, or None if a denominator vanishes mod p."""
    parts = _scaled_parts(mat)
    reduced = _parts_mod(parts, p)
    if reduced is None:
        return None
    return _image(reduced, p, rho_img) * pow(parts[0], -1, p) % p


def _rref_mod(a, p: int) -> list:
    """Reduce the int64 matrix ``a`` (entries in [0, p)) in place to its
    reduced row echelon form over F_p; returns the pivot columns."""
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
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(f[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def _inverse_mod(a, p: int):
    """Inverse of a square int64 matrix over F_p, or None if it is singular."""
    n = a.shape[0]
    work = np.hstack([a, np.eye(n, dtype=np.int64)])
    if _rref_mod(work, p) != list(range(n)):
        return None
    return work[:, n:]


def det_nonzero(mat) -> bool:
    """Whether det(mat) != 0.

    True when the determinant is nonzero mod the first prime of ``PRIMES``
    that divides no denominator, which certifies it is nonzero; otherwise
    the exact determinant decides.
    """
    if mat.is_square() and within_headroom(mat.rows):
        for p, rho_img in PRIMES:
            a = matrix_mod(mat, p, rho_img)
            if a is None:
                continue
            if len(_rref_mod(a, p)) == mat.rows:
                return True
            break
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
                            lambda gen, mat: (gen @ mat) % p, insert, n * n)


# -- certified hom spaces ---------------------------------------------------

def _hom_system_mod(dims, wb, v_inv, p: int):
    """The intertwiner system of ``quiver.hom_space`` mod p, built directly.

    One row per sink entry (r, c) off the block diagonal, in row-major
    order; one column per entry (k, l) of M1 then of M2.  The coefficient
    is W.B[r, k] * V.B^{-1}[l, c], entry (r, c) of W.B . E_kl . V.B^{-1}.
    """
    sink = np.repeat(np.arange(3), dims.sink_blocks)
    off = sink[:, None] != sink[None, :]
    count = int(off.sum())
    parts = []
    for start, size in zip((0, dims.a), dims.source_blocks):
        w = wb[:, start:start + size]
        v = v_inv[start:start + size, :]
        coef = w[:, None, :, None] * v.T[None, :, None, :] % p
        parts.append(coef[off].reshape(count, size * size))
    return np.hstack(parts)


def _kernel_mod(system, p: int) -> tuple:
    """(nullity, vector): the vector spans the kernel when the nullity is 1,
    with a 1 at its free column, which is its last nonzero coordinate."""
    cols = system.shape[1]
    pivots = _rref_mod(system, p)
    if cols - len(pivots) != 1:
        return cols - len(pivots), None
    (free,) = set(range(cols)).difference(pivots)
    vec = np.zeros(cols, dtype=np.int64)
    vec[free] = 1
    vec[pivots] = -system[:len(pivots), free] % p
    return 1, vec


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


def hom_kernel(V, W, certify):
    """Certified basis of the hom space V -> W of nullity at most one.

    For each prime p = 1 (mod 3) from ``primes()``, the intertwiner system
    is built mod p under both cube roots rho and rho**2 of unity.  A
    nullity of 0 mod p certifies an empty hom space.  A nullity of 1 gives
    the kernel vector a + b*w under both embeddings, normalised at its
    free column, from which a and b are solved mod p; the primes are
    combined by CRT, and after every second prime the rational values are
    reconstructed.  ``certify(entries)`` checks a candidate exactly and
    returns its hom element or None.  A passing candidate certifies the
    hom space: 1 <= exact nullity <= nullity mod p = 1.  Normalised at its
    last nonzero coordinate, the kernel vector is the one the exact reduced
    echelon form yields.

    Returns [] or [element] when certified; None (not certified) when the
    nullity mod p is above 1 at the first usable prime, or no candidate has
    passed after ``MAX_PRIMES`` primes.
    """
    dims = V.dims
    if not within_headroom(dims.n):
        return None
    v_parts = _scaled_parts(V.B)
    w_parts = _scaled_parts(W.B)
    free = None
    for p, rho in islice(primes(), MAX_PRIMES):
        v_mod = _parts_mod(v_parts, p)
        w_mod = _parts_mod(w_parts, p)
        if v_mod is None or w_mod is None:
            continue
        images = []
        for r in (rho, rho * rho % p):
            v_inv = _inverse_mod(_image(v_mod, p, r), p)
            if v_inv is None:
                break
            system = _hom_system_mod(dims, _image(w_mod, p, r), v_inv, p)
            nullity, vec = _kernel_mod(system, p)
            if nullity == 0:
                return []
            if nullity > 1:
                if free is None:
                    return None
                break
            images.append(vec)
        if len(images) < 2:
            continue
        last = [int(np.flatnonzero(vec)[-1]) for vec in images]
        if last[0] != last[1] or (free is not None and last[0] < free):
            continue  # p divides an entry of the kernel vector
        if free is None or last[0] > free:
            free, modulus, used = last[0], 1, 0
            residues = [0] * (2 * len(images[0]))
        # v(rho) = a + b*rho and v(rho^2) = a + b*rho^2
        b = (images[0] - images[1]) % p * pow(rho - rho * rho, -1, p) % p
        a = (images[0] - b * rho) % p
        step = pow(modulus, -1, p)
        for i, x in enumerate(np.concatenate([a, b]).tolist()):
            residues[i] += modulus * ((x - residues[i] % p) * step % p)
        modulus *= p
        used += 1
        if used % 2:
            continue
        values = _reconstruct(residues, modulus)
        if values is None:
            continue
        half = len(values) // 2
        vec = [CycRat(Rational(*values[i]), Rational(*values[half + i]))
               for i in range(half)]
        # The exact kernel vector has a 1 at the free column and zeros after it.
        if vec[free] != 1 or any(vec[free + 1:]):
            continue
        result = certify(vec)
        if result is not None:
            return [result]
    return None
