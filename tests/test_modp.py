import itertools
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from braidrev import CycMatrix, CycRat, Rational, _modp

small_cycrats = st.builds(CycRat, st.integers(-3, 3), st.integers(-3, 3))


def square_matrices(n: int):
    row = st.lists(small_cycrats, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(CycMatrix)


def singular_matrices(n: int):
    """Matrices whose last row is a combination of the others."""
    def make(args):
        rows, coeffs = args
        last = [sum((c * row[j] for c, row in zip(coeffs, rows)), CycRat(0))
                for j in range(n)]
        return CycMatrix(rows + [last])

    rows = st.lists(st.lists(small_cycrats, min_size=n, max_size=n),
                    min_size=n - 1, max_size=n - 1)
    coeffs = st.lists(small_cycrats, min_size=n - 1, max_size=n - 1)
    return st.tuples(rows, coeffs).map(make)


def trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimeStream:
    def test_starts_with_the_table(self):
        head = itertools.islice(_modp.primes(), len(_modp.PRIMES))
        assert tuple(head) == _modp.PRIMES

    def test_primes_with_cube_roots(self):
        stream = list(itertools.islice(_modp.primes(), 40))
        assert [p for p, _ in stream] == sorted({p for p, _ in stream}, reverse=True)
        for p, rho in stream + list(_modp.PRIMES):
            assert p < 2 ** _modp.PRIME_BITS and p % 3 == 1
            assert trial_division(p)
            assert rho != 1 and pow(rho, 3, p) == 1

    def test_no_prime_skipped(self):
        stream = [2 ** _modp.PRIME_BITS] + [p for p, _ in itertools.islice(_modp.primes(), 10)]
        for hi, lo in zip(stream, stream[1:]):
            assert not any(trial_division(q) for q in range(lo + 6, hi, 6))

    def test_miller_rabin_matches_trial_division(self):
        for n in range(2000):
            assert _modp._is_prime(n) == trial_division(n), n
        # strong pseudoprimes to the first one, two and three bases
        for n in (2047, 1373653, 25326001):
            assert not _modp._is_prime(n)


def entrywise_mod(mat, p, rho):
    """Each entry's rational parts reduced one by one, or None."""
    out = []
    for row in mat.entries:
        out.append([])
        for v in row:
            if v.re.denominator % p == 0 or v.rh.denominator % p == 0:
                return None
            re = v.re.numerator * pow(v.re.denominator, -1, p)
            rh = v.rh.numerator * pow(v.rh.denominator, -1, p)
            out[-1].append((re + rh * rho) % p)
    return out


rationals = st.builds(Rational, st.integers(-10 ** 30, 10 ** 30),
                      st.sampled_from([1, 2, 7, 3 ** 40, _modp.PRIMES[0][0]]))


class TestMatrixMod:
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.builds(CycRat, rationals, rationals), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_matches_entrywise(self, rows):
        mat = CycMatrix(rows)
        for p, rho in _modp.PRIMES[:2]:
            image = _modp.matrix_mod(mat, p, rho)
            expected = entrywise_mod(mat, p, rho)
            if expected is None:
                assert image is None
            else:
                assert image.tolist() == expected


class TestHeadroom:
    def test_bound(self):
        assert _modp.MAX_DIM * (2 ** _modp.PRIME_BITS) ** 2 == 2 ** 63
        assert _modp.MAX_DIM == 2048
        assert _modp.within_headroom(2047)
        assert not _modp.within_headroom(2048)
        p = _modp.PRIMES[0][0]
        assert (_modp.MAX_DIM - 1) * (p - 1) ** 2 < 2 ** 63

    def test_burnside_refuses_without_allocating(self):
        # zero strides: a 4096 x 4096 view of one int64
        big = np.broadcast_to(np.int64(0), (4096, 4096))
        assert _modp.burnside_rank_mod(big, big, _modp.PRIMES[0][0]) is None

    def test_hom_kernel_refuses_before_reducing(self):
        stub = SimpleNamespace(dims=SimpleNamespace(n=4096), B=None)
        assert _modp.hom_kernel(stub, stub, certify=None) is None

    def test_det_nonzero_goes_exact(self):
        # no ``entries``: reducing the matrix would raise
        stub = SimpleNamespace(rows=4096, is_square=lambda: True, det=lambda: CycRat(1))
        assert _modp.det_nonzero(stub) is True


class TestDetNonzero:
    @given(st.integers(1, 4).flatmap(square_matrices))
    @settings(deadline=None)
    def test_matches_exact(self, m):
        assert _modp.det_nonzero(m) == (m.det() != 0)

    @given(st.integers(1, 4).flatmap(singular_matrices))
    @settings(deadline=None)
    def test_singular(self, m):
        assert m.det() == 0
        assert _modp.det_nonzero(m) is False

    def test_det_divisible_by_the_prime(self):
        p = _modp.PRIMES[0][0]
        assert _modp.det_nonzero(CycMatrix.diagonal([p, 1]))

    def test_denominator_divisible_by_the_prime(self):
        p = _modp.PRIMES[0][0]
        m = CycMatrix([[CycRat(Rational(1, p)), 1], [1, 1]])
        assert _modp.det_nonzero(m) == (m.det() != 0)
        assert not _modp.det_nonzero(CycMatrix([[CycRat(Rational(1, p)), 1],
                                                [CycRat(Rational(2, p)), 2]]))

    def test_empty(self):
        assert _modp.det_nonzero(CycMatrix.zeros(0, 0))


class TestReconstruction:
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 1000)),
                    min_size=1, max_size=5))
    def test_round_trip(self, fractions):
        # common denominator <= 1000**5 and numerators <= 1000**6, well
        # inside the bound sqrt(m / 2) of the six table primes (about 2**77)
        m = math.prod(p for p, _ in _modp.PRIMES)
        values = [Rational(n, d) for n, d in fractions]
        residues = [int(v.numerator) * pow(int(v.denominator), -1, m) % m for v in values]
        out = _modp._reconstruct(residues, m)
        assert [Rational(n, d) for n, d in out] == values
