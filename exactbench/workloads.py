"""The four workloads.

Each workload turns (seed, round) into a list of tasks; a task is the
library calls that one trial of a CLI command makes on one sampled point.
Round r uses the seed that the CLI derives for trial r, so a round equals
trial r of the command named in each class docstring.  ``record`` turns a
task's output into plain data (pairs of Fractions, ints, bools), ``check``
verifies it with the benchmark's own arithmetic in ``qw``, and ``corrupt``
alters one output value for the checkers' self-test.

The code calls braidrev through module attributes (``families.x``), never
through names bound at import, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from braidrev import braid, families, linalg, quiver

import qw


@dataclass
class Task:
    label: str
    run: Callable
    info: dict


def trial_seed(seed: int, trial: int) -> int:
    """The per-trial seed that the braidrev CLI derives for trial ``trial``."""
    return (seed * 1_000_003 + trial) & ((1 << 63) - 1)


def _dims(d) -> tuple:
    return (d.a, d.b, d.x, d.y, d.z)


def _modp_first(fn):
    """fn(p, w) for the first prime at which no denominator or pivot vanishes."""
    for p, w in qw.PRIMES:
        try:
            return fn(p, w)
        except ValueError:
            continue
    raise ValueError("every prime divides a denominator or a pivot")


class Workload:
    """``tasks(seed, r)`` builds round r; ``record(task, output)`` turns an
    output into plain data; ``check(record)`` and ``check_run(records, seed)``
    return the problems found; ``corrupt(record)`` spoils one output value."""

    name = ""

    def check_run(self, records: list, seed: int) -> list:
        return []


# -- odd-fixed ---------------------------------------------------------------

def _odd_task(k: int, s: int):
    return families.verify_odd_family(k, s)


class OddFixed(Workload):
    """``braidrev verify --family odd --k k --seed <seed>`` for k = 3, 4, 5."""

    name = "odd-fixed"
    sizes = (3, 4, 5)

    def tasks(self, seed: int, r: int) -> list:
        s = trial_seed(seed, r)
        return [Task(f"k={k}", partial(_odd_task, k, s), {"k": k, "seed": s})
                for k in self.sizes]

    def record(self, task: Task, report) -> dict:
        # The report carries the witness but not the points it relates, so
        # the sampled V and its transpose image are rebuilt here.
        V = families.make_odd_family(task.info["k"], task.info["seed"])
        W = quiver.tau_quiver(V)
        return {
            "dims": _dims(V.dims),
            "B": qw.from_matrix(V.B),
            "WB": qw.from_matrix(W.B),
            "isomorphic": report.isomorphic,
            "witness": (None if report.witness is None else
                        [qw.from_matrix(blk) for blk in report.witness.blocks()]),
        }

    def check(self, rec: dict) -> list:
        if not rec["isomorphic"] or rec["witness"] is None:
            return ["no isomorphism witness reported"]
        B, WB = rec["B"], rec["WB"]
        problems = []
        if qw.matmul(qw.transpose(WB), B) != qw.identity(len(B)):
            problems.append("W.B^T . V.B != I")
        M = qw.block_diag(rec["witness"][:2])
        N = qw.block_diag(rec["witness"][2:])
        if qw.matmul(N, WB) != qw.matmul(B, M):
            problems.append("diag(N) . W.B != V.B . diag(M)")
        if any(blk and qw.det(blk) == qw.ZERO for blk in rec["witness"]):
            problems.append("a witness block is singular")
        if not any(_hom_nullity_mod(B, WB, rec["dims"], p, w) == 1
                   for p, w in qw.PRIMES):
            problems.append("hom dimension not certified to be at most 1")
        return problems

    def corrupt(self, rec: dict) -> dict:
        witness = [[list(row) for row in blk] for blk in rec["witness"]]
        witness[0][0][0] = qw.add(witness[0][0][0], qw.ONE)
        return {**rec, "witness": witness}


def _hom_nullity_mod(B, WB, dims, p: int, w: int) -> int | None:
    """Nullity mod p of the full intertwiner system diag(N).W.B = B.diag(M)
    in all entries of (M1, M2; N1, N2, N3).  The nullity mod p bounds the
    exact hom dimension from above; None if p divides a denominator."""
    try:
        Bp = qw.reduce_matrix(B, p, w)
        WBp = qw.reduce_matrix(WB, p, w)
    except ValueError:
        return None
    a, b, x, y, z = dims
    n = a + b

    def layout(sizes, base):
        cols, off = {}, 0
        for size in sizes:
            for i in range(off, off + size):
                for j in range(off, off + size):
                    cols[i, j] = base + len(cols)
            off += size
        blocks = []
        off = 0
        for size in sizes:
            blocks.extend([range(off, off + size)] * size)
            off += size
        return cols, blocks

    m_col, src_block = layout((a, b), 0)
    n_col, snk_block = layout((x, y, z), len(m_col))
    system = np.zeros((n * n, len(m_col) + len(n_col)), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for l in snk_block[i]:
                system[row, n_col[i, l]] += WBp[l, j]
            for l in src_block[j]:
                system[row, m_col[l, j]] -= Bp[i, l]
    return system.shape[1] - qw.rank_mod(system % p, p)


# -- reversion-detect ------------------------------------------------------

# Normalized dimension vectors of sizes 6..11: one detecting component
# (min(a,b) >= 3 and min(x,y,z) >= 2) and one fixed component
# ((k,k;k,k-1,1) or (k+1,k;k,k,1)) per size.
DETECTING = ((3, 3, 2, 2, 2), (4, 3, 3, 2, 2), (4, 4, 3, 3, 2),
             (5, 4, 3, 3, 3), (5, 5, 4, 3, 3), (6, 5, 4, 4, 3))
FIXED = ((3, 3, 3, 2, 1), (4, 3, 3, 3, 1), (4, 4, 4, 3, 1),
         (5, 4, 4, 4, 1), (5, 5, 5, 4, 1), (6, 5, 5, 5, 1))
DIM6 = (3, 3, 2, 2, 2)
WORD_SYLLABLES = 4


def _random_word(rng: random.Random):
    gen = rng.choice((1, 2))
    syllables = []
    for _ in range(WORD_SYLLABLES):
        syllables.append((gen, rng.choice((-2, -1, 1, 2))))
        gen = 3 - gen
    return braid.BraidWord(tuple(syllables))


def _sample_point(dims: tuple, s: int):
    """The point that ``reversion --alpha <dims>`` samples from seed s."""
    rng = random.Random(s)
    if dims == DIM6:
        return families.make_dim6_detecting(families.sample_dim6_params(rng))
    return families.sample_stable_rep(quiver.DimVector(*dims), rng)


def kernel_operands(seed: int) -> dict:
    """(X1, X2) at n = 6 and n = 11: round 0's detecting points of
    reversion-detect, the fixed operands of the per-entry kernel timings."""
    s = trial_seed(seed, 0)
    out = {}
    for n, dims in ((6, DETECTING[0]), (11, DETECTING[-1])):
        phi = braid.build_rep(_sample_point(dims, s))
        out[n] = (phi.X1, phi.X2)
    return out


def _reversion_task(dims: tuple, s: int, words: dict) -> dict:
    V = _sample_point(dims, s)
    phi = braid.build_rep(V)
    tphi = braid.tau_rep(phi)
    return {
        "V": V,
        "phi": phi,
        "traces": {
            "b": braid.trace_of(phi, words["b"]),
            "b~": braid.trace_of(phi, words["b~"]),
            "w~": braid.trace_of(phi, words["w~"]),
            "tau w": braid.trace_of(tphi, words["w"]),
        },
    }


class ReversionDetect(Workload):
    """``braidrev reversion --alpha <dims> --seed <seed>`` on every component
    in DETECTING and FIXED, plus the traces of one seeded random word."""

    name = "reversion-detect"

    def tasks(self, seed: int, r: int) -> list:
        s = trial_seed(seed, r)
        b = braid.EIGHT_SEVENTEEN
        out = []
        for idx, dims in enumerate(DETECTING + FIXED):
            w = _random_word(random.Random(s * 16 + idx))
            words = {"b": b, "b~": braid.reverse_braid(b),
                     "w": w, "w~": braid.reverse_braid(w)}
            out.append(Task(str(dims), partial(_reversion_task, dims, s, words),
                            {"dims": dims, "detecting": dims in DETECTING,
                             "words": words, "seed": s}))
        return out

    def record(self, task: Task, out: dict) -> dict:
        words = task.info["words"]
        return {
            "dims": task.info["dims"],
            "detecting": task.info["detecting"],
            "B": qw.from_matrix(out["V"].B),
            "X1": qw.from_matrix(out["phi"].X1),
            "X2": qw.from_matrix(out["phi"].X2),
            "traces": {k: qw.from_cycrat(v) for k, v in out["traces"].items()},
            "b": words["b"].syllables,
            "w": words["w"].syllables,
        }

    def check(self, rec: dict) -> list:
        a, b, x, y, z = rec["dims"]
        B, X1, X2, t = rec["B"], rec["X1"], rec["X2"], rec["traces"]
        D = qw.diag([qw.ONE] * x + [qw.W2] * y + [qw.W] * z)
        J = qw.diag([qw.ONE] * a + [qw.MINUS_ONE] * b)
        DB = qw.matmul(D, B)
        problems = []
        if qw.matmul(B, X1) != qw.matmul(DB, J):
            problems.append("B.X1 != D.B.J")
        if qw.matmul(qw.matmul(B, J), X2) != DB:
            problems.append("B.J.X2 != D.B")
        if qw.matmul(qw.matmul(X1, X2), X1) != qw.matmul(qw.matmul(X2, X1), X2):
            problems.append("braid relation fails")
        if t["tau w"] != t["w~"]:
            problems.append("Tr tau(phi)(w) != Tr phi(reverse w)")
        if not rec["detecting"] and t["b"] != t["b~"]:
            problems.append("8_17 separates on a fixed component")
        try:
            return problems + _modp_first(partial(_traces_mod, rec))
        except ValueError as exc:
            return problems + [f"no usable prime: {exc}"]

    def check_run(self, records: list, seed: int) -> list:
        """Each detecting component needs a point where 8_17 separates.

        A sampled point may be non-generic (about 2 % of the (3,3;2,2,2)
        points are); if no point of the run separates, further trials of
        the same command are drawn, untimed, and checked in full."""
        problems = []
        rounds = len(records) // len(DETECTING + FIXED)
        for dims in DETECTING:
            if any(rec["traces"]["b"] != rec["traces"]["b~"]
                   for rec in records if rec["dims"] == dims):
                continue
            for r in range(rounds, rounds + 16):
                task = next(t for t in self.tasks(seed, r) if t.info["dims"] == dims)
                rec = self.record(task, task.run())
                problems += self.check(rec)
                if rec["traces"]["b"] != rec["traces"]["b~"]:
                    break
            else:
                problems.append(f"8_17 never separates on {dims}")
        return problems

    def corrupt(self, rec: dict) -> dict:
        traces = dict(rec["traces"])
        traces["b"] = qw.add(traces["b"], qw.ONE)
        return {**rec, "traces": traces}


def _traces_mod(rec: dict, p: int, w: int) -> list:
    """Compare each exact trace with the word's image mod p, evaluated from
    B alone: X1 = B^-1 D B J, X2 = J B^-1 D B, and tau(phi) is the pair of
    transposes."""
    a, b, x, y, z = rec["dims"]
    Bp = qw.reduce_matrix(rec["B"], p, w)
    Dp = np.diag([1] * x + [w * w % p] * y + [w] * z).astype(np.int64)
    Jp = np.diag([1] * a + [p - 1] * b).astype(np.int64)
    core = qw.inverse_mod(Bp, p) @ Dp % p @ Bp % p
    X1, X2 = core @ Jp % p, Jp @ core % p
    I1, I2 = qw.inverse_mod(X1, p), qw.inverse_mod(X2, p)
    gens = {1: (X1, I1), 2: (X2, I2)}
    tgens = {1: (X1.T, I1.T), 2: (X2.T, I2.T)}
    rev = lambda word: tuple(reversed(word))
    tr = lambda g, word: int(np.trace(qw.word_mod(g, word, p)) % p)
    expected = {
        "b": tr(gens, rec["b"]),
        "b~": tr(gens, rev(rec["b"])),
        "w~": tr(gens, rev(rec["w"])),
        "tau w": tr(tgens, rec["w"]),
    }
    return [f"trace '{key}' differs mod {p} from the word's image"
            for key, value in expected.items()
            if qw.reduce(rec["traces"][key], p, w) != value]


# -- jumping-pencil ----------------------------------------------------------

PENCIL_POINTS = 3


def _jumping_task(m: int, s: int):
    dims = quiver.DimVector(2 * m, m, m, m, m)
    B = families.random_invertible(random.Random(s), dims.n)
    V = quiver.QuiverRep(dims, B)
    p = families.jumping_pencil(V)
    q = families.jumping_pencil(quiver.tau_quiver(V))
    return V, p, q


class JumpingPencil(Workload):
    """``braidrev jumping --n m --seed <seed>`` for m = 4, 5, 6."""

    name = "jumping-pencil"
    sizes = (4, 5, 6)

    def tasks(self, seed: int, r: int) -> list:
        s = trial_seed(seed, r)
        return [Task(f"m={m}", partial(_jumping_task, m, s), {"m": m, "seed": s})
                for m in self.sizes]

    def record(self, task: Task, out) -> dict:
        V, p, q = out
        return {
            "m": task.info["m"],
            "seed": task.info["seed"],
            "B": qw.from_matrix(V.B),
            "pencils": [(poly.degree, {key: qw.from_cycrat(c)
                                       for key, c in poly.coeffs.items()})
                        for poly in (p, q)],
        }

    def check(self, rec: dict) -> list:
        m = rec["m"]
        problems = []
        for name, (degree, coeffs) in zip(("pencil", "tau pencil"), rec["pencils"]):
            if degree != m or any(sum(key) != m for key in coeffs):
                problems.append(f"{name}: a monomial is not of degree {m}")
            total = qw.ZERO
            for c in coeffs.values():
                total = qw.add(total, c)
            if total != qw.ONE:
                problems.append(f"{name}: p(1,1,1) != 1")
        try:
            return problems + _modp_first(partial(_pencils_mod, rec))
        except ValueError as exc:
            return problems + [f"no usable prime: {exc}"]

    def corrupt(self, rec: dict) -> dict:
        degree, coeffs = rec["pencils"][0]
        coeffs = dict(coeffs)
        key = next(iter(coeffs))
        coeffs[key] = qw.add(coeffs[key], qw.ONE)
        return {**rec, "pencils": [(degree, coeffs), rec["pencils"][1]]}


def _pencils_mod(rec: dict, p: int, w: int) -> list:
    """Compare each pencil with det(xP + yQ + zR) mod p at seeded points.

    P, Q, R are C_i2 . B_i2 for the b-column blocks of B and the b-row
    blocks of B^-1; the transpose image has B' = (B^-1)^T and B'^-1 = B^T."""
    m = rec["m"]
    Bp = qw.reduce_matrix(rec["B"], p, w)
    Bi = qw.inverse_mod(Bp, p)
    rng = random.Random(rec["seed"])
    points = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(PENCIL_POINTS)]
    problems = []
    for name, (B, C), (_, coeffs) in zip(("pencil", "tau pencil"),
                                         ((Bp, Bi), (Bi.T, Bp.T)), rec["pencils"]):
        blocks = [C[2 * m:, i * m:(i + 1) * m] @ B[i * m:(i + 1) * m, 2 * m:] % p
                  for i in range(3)]
        for pt in points:
            pencil = sum(c * blk for c, blk in zip(pt, blocks)) % p
            value = 0
            for (i, j, k), c in coeffs.items():
                value += qw.reduce(c, p, w) * pt[0] ** i * pt[1] ** j * pt[2] ** k
            if value % p != qw.det_mod(pencil, p):
                problems.append(f"{name} differs from det(xP+yQ+zR) mod {p} at {pt}")
    return problems


# -- semisimple-split ----------------------------------------------------------

# (phi dims, psi dims): two simple summands with different dimension
# vectors, hence non-isomorphic, of total size 6..9.
PAIRS = (((2, 1, 1, 1, 1), (1, 2, 1, 1, 1)),
         ((2, 2, 2, 1, 1), (2, 1, 1, 1, 1)),
         ((3, 2, 2, 2, 1), (2, 1, 1, 1, 1)),
         ((3, 2, 2, 2, 1), (2, 2, 2, 1, 1)))


def _split_task(total, phi, psi) -> dict:
    return {
        "sum_simple": braid.is_simple(total),
        "sum_dims": braid.recover_dimvector(total),
        "parts_simple": [braid.is_simple(phi), braid.is_simple(psi)],
        "parts_dims": [braid.recover_dimvector(phi), braid.recover_dimvector(psi)],
    }


class SemisimpleSplit(Workload):
    """``is_simple`` and ``recover_dimvector`` on phi (+) psi and on phi and
    psi.  No CLI command takes a direct sum; the summands are sampled as in
    ``reversion --seed <seed>`` and the sum is built before the round."""

    name = "semisimple-split"

    def tasks(self, seed: int, r: int) -> list:
        rng = random.Random(trial_seed(seed, r))
        out = []
        for d1, d2 in PAIRS:
            phi = braid.build_rep(families.sample_stable_rep(quiver.DimVector(*d1), rng))
            psi = braid.build_rep(families.sample_stable_rep(quiver.DimVector(*d2), rng))
            total = braid.B3Rep(linalg.block_diag([phi.X1, psi.X1]),
                                linalg.block_diag([phi.X2, psi.X2]))
            out.append(Task(f"{d1}+{d2}", partial(_split_task, total, phi, psi),
                            {"dims": (d1, d2), "parts": (phi, psi)}))
        return out

    def record(self, task: Task, out: dict) -> dict:
        return {
            "dims": task.info["dims"],
            "parts": [(qw.from_matrix(rep.X1), qw.from_matrix(rep.X2))
                      for rep in task.info["parts"]],
            "sum_simple": out["sum_simple"],
            "sum_dims": _dims(out["sum_dims"]),
            "parts_simple": list(out["parts_simple"]),
            "parts_dims": [_dims(d) for d in out["parts_dims"]],
        }

    def check(self, rec: dict) -> list:
        d1, d2 = rec["dims"]
        problems = []
        if rec["sum_simple"] is not False:
            problems.append("a direct sum is reported simple")
        if rec["sum_dims"] != tuple(u + v for u, v in zip(d1, d2)):
            problems.append(f"dims of the sum {rec['sum_dims']} != {d1} + {d2}")
        if rec["parts_dims"] != [d1, d2]:
            problems.append(f"summand dims {rec['parts_dims']} != {[d1, d2]}")
        for (X1, X2), reported in zip(rec["parts"], rec["parts_simple"]):
            n = len(X1)
            full = any(_algebra_dim(X1, X2, p, w) == n * n for p, w in qw.PRIMES)
            if not full:
                problems.append(f"a {n}-dimensional summand is not certified simple")
            if reported is not full:
                problems.append(f"is_simple says {reported} on a summand")
        return problems

    def corrupt(self, rec: dict) -> dict:
        return {**rec, "sum_simple": not rec["sum_simple"]}


def _algebra_dim(X1, X2, p: int, w: int) -> int:
    try:
        return qw.algebra_dim_mod(qw.reduce_matrix(X1, p, w),
                                  qw.reduce_matrix(X2, p, w), p)
    except ValueError:
        return 0


WORKLOADS = {wl.name: wl for wl in (OddFixed(), ReversionDetect(),
                                    JumpingPencil(), SemisimpleSplit())}
