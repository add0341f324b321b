"""The benchmark's own arithmetic, kept apart from braidrev so that the
checks do not reuse the code they check.

* Exact: an element a + b*w of Q(w), w^2 + w + 1 = 0, is a pair
  (Fraction a, Fraction b); matrices are lists of rows of such pairs.
* Modular: matrices over F_p as numpy int64 arrays, for primes p = 1 mod 3
  in which w maps to a primitive cube root of unity.  A reduction can only
  lower a rank, so a mod-p rank or nullity is a one-sided bound, and each
  use below says which side it relies on.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
MINUS_ONE = (Fraction(-1), Fraction(0))
W = (Fraction(0), Fraction(1))
W2 = (Fraction(-1), Fraction(-1))


# -- exact Q(w) ------------------------------------------------------------

def from_cycrat(v) -> tuple:
    """A braidrev CycRat as a pair; reads only its two rational parts."""
    return (Fraction(int(v.re.numerator), int(v.re.denominator)),
            Fraction(int(v.rh.numerator), int(v.rh.denominator)))


def from_matrix(mat) -> list:
    return [[from_cycrat(v) for v in row] for row in mat.entries]


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def inv(x):
    a, b = x
    norm = a * a - a * b + b * b
    if not norm:
        raise ZeroDivisionError("inverse of zero in Q(w)")
    return ((a - b) / norm, -b / norm)


def matmul(A, B) -> list:
    cols = len(B[0])
    out = []
    for row in A:
        re = [Fraction(0)] * cols
        rh = [Fraction(0)] * cols
        for k, (a, b) in enumerate(row):
            if not (a or b):
                continue
            for j, (c, d) in enumerate(B[k]):
                if c or d:
                    bd = b * d
                    re[j] += a * c - bd
                    rh[j] += a * d + b * c - bd
        out.append(list(zip(re, rh)))
    return out


def identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def block_diag(blocks) -> list:
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[off + i][off:off + len(row)] = row
        off += len(blk)
    return out


def transpose(A) -> list:
    return [list(col) for col in zip(*A)]


def det(A) -> tuple:
    """Exact determinant by Gaussian elimination over Q(w)."""
    work = [list(row) for row in A]
    n = len(work)
    result = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            result = sub(ZERO, result)
        p = work[c][c]
        result = mul(result, p)
        p_inv = inv(p)
        for i in range(c + 1, n):
            f = mul(work[i][c], p_inv)
            if f != ZERO:
                work[i] = [sub(x, mul(f, y)) for x, y in zip(work[i], work[c])]
    return result


# -- F_p -------------------------------------------------------------------

def _is_prime(m: int) -> bool:
    if m < 2 or m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _primes_1_mod_3(below: int, count: int) -> tuple:
    """The largest primes p < below with p = 1 mod 3, each with a primitive
    cube root of unity.  Below 2**25, a product of two residues and a sum
    of up to 2**13 such products stay inside int64."""
    out = []
    m = below - 1
    while len(out) < count:
        if m % 3 == 1 and _is_prime(m):
            g = 2
            while pow(g, (m - 1) // 3, m) == 1:
                g += 1
            out.append((m, pow(g, (m - 1) // 3, m)))
        m -= 1
    return tuple(out)


PRIMES = _primes_1_mod_3(1 << 25, 3)


def reduce(x, p: int, w: int) -> int:
    """Image of a pair in F_p; ValueError if a denominator vanishes mod p."""
    a, b = x
    return (a.numerator * pow(a.denominator, -1, p)
            + b.numerator * pow(b.denominator, -1, p) * w) % p


def reduce_matrix(A, p: int, w: int) -> np.ndarray:
    return np.array([[reduce(x, p, w) for x in row] for row in A],
                    dtype=np.int64).reshape(len(A), len(A[0]) if A else 0)


def _echelon(A: np.ndarray, p: int):
    """Row echelon form mod p with unit pivots; returns (matrix, pivot columns)."""
    A = A.copy() % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        below = A[r + 1:, c].copy()
        if below.any():
            A[r + 1:] = (A[r + 1:] - np.outer(below, A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(_echelon(A, p)[1])


def det_mod(A: np.ndarray, p: int) -> int:
    work = A.copy() % p
    n = work.shape[0]
    result = 1
    for c in range(n):
        nz = np.nonzero(work[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            work[[c, i]] = work[[i, c]]
            result = -result
        piv = int(work[c, c])
        result = result * piv % p
        below = work[c + 1:, c] * pow(piv, -1, p) % p
        work[c + 1:] = (work[c + 1:] - np.outer(below, work[c])) % p
    return result % p


def inverse_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan inverse mod p; ValueError if A is singular mod p."""
    n = A.shape[0]
    E, pivots = _echelon(np.hstack([A % p, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular mod p")
    for c in range(n - 1, -1, -1):
        above = E[:c, c].copy()
        if above.any():
            E[:c] = (E[:c] - np.outer(above, E[c])) % p
    return E[:, n:]


def word_mod(gens: dict, word, p: int) -> np.ndarray:
    """Image of a braid word, given as (generator, exponent) syllables, from
    the images of the generators and their inverses mod p."""
    n = gens[1][0].shape[0]
    acc = np.eye(n, dtype=np.int64)
    for gen, exp in word:
        base = gens[gen][0] if exp > 0 else gens[gen][1]
        for _ in range(abs(exp)):
            acc = (acc @ base) % p
    return acc


def algebra_dim_mod(X1: np.ndarray, X2: np.ndarray, p: int) -> int:
    """Dimension of the algebra generated by X1, X2 over F_p.

    Grows a spanning set of matrices from I by left multiplication with the
    generators, keeping an echelon basis of the flattened matrices.
    The dimension can only be lower than over Q(w), so reaching n^2 here
    proves that the exact algebra is the full matrix algebra.
    """
    n = X1.shape[0]
    full = n * n
    basis = np.zeros((0, full), dtype=np.int64)
    pivots: list[int] = []

    def add_vector(M) -> bool:
        nonlocal basis
        v = M.reshape(-1) % p
        for row, c in zip(basis, pivots):
            if v[c]:
                v = (v - int(v[c]) * row) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = v * pow(int(v[c]), -1, p) % p
        pivots.append(c)
        basis = np.vstack([basis, v])
        return True

    frontier = [np.eye(n, dtype=np.int64)]
    add_vector(frontier[0])
    while frontier and len(pivots) < full:
        M = frontier.pop()
        for G in (X1, X2):
            child = (G @ M) % p
            if add_vector(child):
                frontier.append(child)
    return len(pivots)
