import math
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

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
    """The prime the modular routines use."""

    def test_primes_with_cube_roots(self):
        p, rho = _modp.PRIME
        assert p < 2 ** _modp.PRIME_BITS and p % 3 == 1
        assert trial_division(p)
        assert rho != 1 and pow(rho, 3, p) == 1

    def test_no_prime_skipped(self):
        # the largest prime below 2**26 that is 1 mod 3 (and so 1 mod 6)
        p, _ = _modp.PRIME
        assert not any(trial_division(q) for q in range(p + 6, 2 ** _modp.PRIME_BITS, 6))


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
                      st.sampled_from([1, 2, 7, 3 ** 40, _modp.PRIME[0]]))


class TestMatrixMod:
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.builds(CycRat, rationals, rationals), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_matches_entrywise(self, rows):
        mat = CycMatrix(rows)
        for p, rho in (_modp.PRIME, (13, 3)):
            # ``reduce_mod`` only reduces at a prime that divides no denominator
            if mat.den % p:
                assert _modp.matrix_mod(mat, p, rho).tolist() == entrywise_mod(mat, p, rho)


class TestHeadroom:
    def test_bound(self):
        assert _modp.MAX_DIM * (2 ** _modp.PRIME_BITS) ** 2 == 2 ** 63
        assert _modp.MAX_DIM == 2048
        assert _modp.within_headroom(2047)
        assert not _modp.within_headroom(2048)
        p = _modp.PRIME[0]
        assert (_modp.MAX_DIM - 1) * (p - 1) ** 2 < 2 ** 63

    def test_burnside_refuses_without_allocating(self):
        # zero strides: a 4096 x 4096 view of one int64
        big = np.broadcast_to(np.int64(0), (4096, 4096))
        assert _modp.burnside_rank_mod(big, big, _modp.PRIME[0]) is None

    def test_hom_kernel_refuses_before_reducing(self):
        # zero strides: 2048 unknowns in a 4096 x 2048 view of one int64
        big = np.broadcast_to(np.int64(0), (4096, 2048))
        assert _modp.hom_kernel(big, big, certify=None) is None

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
        p = _modp.PRIME[0]
        assert _modp.det_nonzero(CycMatrix.diagonal([p, 1]))

    def test_denominator_divisible_by_the_prime(self):
        p = _modp.PRIME[0]
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
        # inside the bound sqrt(m / 2) of m = p**6 (about 2**77)
        m = _modp.PRIME[0] ** 6
        values = [Rational(n, d) for n, d in fractions]
        residues = [int(v.numerator) * pow(int(v.denominator), -1, m) % m for v in values]
        out = _modp._reconstruct(residues, m)
        assert [Rational(n, d) for n, d in out] == values


def zw_arrays(rows, dtype=object):
    """(re, rh) integer arrays of a list of rows of (a, b) pairs, a + b*w."""
    re = np.array([[a for a, _ in row] for row in rows], dtype=dtype)
    rh = np.array([[b for _, b in row] for row in rows], dtype=dtype)
    return re, rh


def exact_solution(rows, rhs):
    """block^{-1} . rhs over Q(w), as a list of CycRat."""
    inv = CycMatrix([[CycRat(a, b) for a, b in row] for row in rows]).inverse()
    col = CycMatrix([[CycRat(a, b)] for a, b in rhs])
    sol = inv @ col
    return [sol[i, 0] for i in range(len(rhs))]


def exact_solution_values(rows, rhs):
    """The rational parts of the exact solution as (numerator, denominator)
    pairs, real parts first, in the layout ``_lift`` reconstructs."""
    sol = exact_solution(rows, rhs)
    return [(int(v.numerator), int(v.denominator))
            for v in [x.re for x in sol] + [x.rh for x in sol]]


def checked(rows, rhs):
    """An ``accept`` for ``TestLift.lift`` that rebuilds a candidate of
    ``_lift`` and keeps it only if it solves the system exactly."""
    block = CycMatrix([[CycRat(a, b) for a, b in row] for row in rows])
    target = CycMatrix([[CycRat(a, b)] for a, b in rhs])

    def accept(values):
        half = len(values) // 2
        vec = [CycRat(Rational(*values[i]), Rational(*values[half + i]))
               for i in range(half)]
        return vec if block @ CycMatrix([[v] for v in vec]) == target else None

    return accept


def zw_systems(height: int):
    """Square Z[w] systems (rows, rhs) of size 1..4, entries up to ``height``."""
    entry = st.tuples(st.integers(-height, height), st.integers(-height, height))

    def system(n):
        return st.tuples(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n),
                         st.lists(entry, min_size=n, max_size=n))

    return st.integers(1, 4).flatmap(system)


class TestLift:
    """``_lift`` against the exact inverse."""

    P, RHO = _modp.PRIME

    def invertible_mod_p(self, rows) -> bool:
        block = zw_arrays(rows)
        return all(_modp._inverse_mod(_modp._embed(*block, self.P, r), self.P) is not None
                   for r in (self.RHO, self.RHO * self.RHO % self.P))

    def lift(self, rows, rhs, dtype=object, accept=None):
        """The first candidate of ``_lift`` that ``accept`` keeps, or None."""
        block = zw_arrays(rows, dtype)
        target = tuple(part[0] for part in zw_arrays([rhs], dtype))
        candidates = map(accept or checked(rows, rhs),
                         _modp._lift(block, target, self.P, self.RHO))
        return next((c for c in candidates if c is not None), None)

    @given(zw_systems(5))
    @settings(deadline=None)
    def test_small_entries(self, system):
        rows, rhs = system
        assume(self.invertible_mod_p(rows))
        assert self.lift(rows, rhs, np.int64) == exact_solution(rows, rhs)

    @given(zw_systems(2 ** 70))
    @settings(deadline=None, max_examples=40)
    def test_python_int_residual(self, system):
        # entries above the int64 bound: the residual is held in Python ints
        rows, rhs = system
        assume(self.invertible_mod_p(rows))
        assert self.lift(rows, rhs) == exact_solution(rows, rhs)

    def test_singular_mod_p(self):
        # det = P: invertible over Q(w), singular mod P
        rows, rhs = [[(self.P, 0), (0, 0)], [(0, 0), (1, 0)]], [(1, 0), (1, 0)]
        assert self.lift(rows, rhs) is None

    def test_singular_under_second_root_only(self):
        # w - rho is a unit under w -> rho^2 and vanishes under w -> rho;
        # w - rho^2 is the other way round
        for root in (self.RHO, self.RHO * self.RHO % self.P):
            assert self.lift([[(-root, 1)]], [(1, 0)]) is None

    def test_bound_is_reached_on_a_tight_system(self):
        # 1 / (a + w) = ((a - 1) - w) / N with N = a^2 - a + 1, which is
        # the Hadamard bound h itself.  Rebuilding a denominator N needs
        # p^k > 2 N^2, and a is chosen so that p^16 is about 1.5 N^2: the
        # lift must go past step 16, so a bound below about 0.75 h^2 gives
        # up one step too early.
        a = math.isqrt(math.isqrt(2 * self.P ** 16 // 3))
        norm = a * a - a + 1
        assert norm ** 2 < self.P ** 16 < 2 * norm ** 2
        expected = [(a - 1, norm), (-1, norm)]
        accept = lambda values: values if values == expected else None  # noqa: E731
        assert self.lift([[(a, 1)]], [(1, 0)], accept=accept) == expected

    def test_gives_up_after_the_bound(self):
        calls = []
        rows, rhs = [[(3, 1), (0, 2)], [(1, 1), (5, -2)]], [(1, 0), (2, 1)]
        assert self.lift(rows, rhs, accept=lambda v: calls.append(v)) is None
        assert calls and calls[-1] == exact_solution_values(rows, rhs)

