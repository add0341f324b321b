"""Internal modular fast paths.

Reducing an exact matrix modulo a prime p = 1 (mod 3) sends w to a cube
root of unity in F_p.  Ranks can only drop under such a reduction, so a
full-rank result mod p is an exact certificate; a deficient result is
not, and callers must fall back to exact arithmetic.  Nothing in here
ever replaces an exact negative answer.
"""

from __future__ import annotations

import numpy as np

from .linalg import span_closure_dim

# Primes just below 2**26 (so n * p**2 stays well inside int64) that are
# congruent to 1 mod 3, paired with a primitive cube root of unity mod p.
PRIMES = (
    (67108837, 57280852),
    (67108819, 19491216),
    (67108777, 35787766),
    (67108753, 49922800),
    (67108747, 43921573),
    (67108729, 56779387),
)


def matrix_mod(mat, p: int, rho_img: int):
    """Image of a CycMatrix in F_p, or None if a denominator vanishes mod p."""
    out = np.zeros((mat.rows, mat.cols), dtype=np.int64)
    for i, row in enumerate(mat.entries):
        for j, v in enumerate(row):
            num_re, den_re = int(v.re.numerator), int(v.re.denominator)
            num_rh, den_rh = int(v.rh.numerator), int(v.rh.denominator)
            if den_re % p == 0 or den_rh % p == 0:
                return None
            re = num_re * pow(den_re, p - 2, p)
            rh = num_rh * pow(den_rh, p - 2, p)
            out[i, j] = (re + rh * rho_img) % p
    return out


def burnside_rank_mod(a1, a2, p: int) -> int:
    """Dimension mod p of the span of all words in two n x n matrices.

    The F_p instance of ``span_closure_dim``, with an echelon basis of
    flattened matrices reduced mod p.
    """
    n = a1.shape[0]
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
