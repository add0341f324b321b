"""Per-layer measurement from outside braidrev; no file of the package changes.

``Tracer`` replaces each public function in SPANNED by a wrapper that
records a span (name, start, end, parent).  A module-level function is
replaced in every braidrev module that binds it by name (``braid.is_simple``
is also ``families.is_simple``), and a ``CycMatrix`` method on the class,
so that calls made inside the package are timed too.  Spans stay in
memory; self time is a span's duration minus that of its child spans.

Field operations are counted by ``count_field_ops`` in a separate pass,
because a wrapper on ``CycRat.__mul__`` would inflate every span around it.
``kernel_times`` times single operations on fixed operands.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

from braidrev import _modp, braid, cyclotomic, families, linalg, quiver

CycMatrix = linalg.CycMatrix

# (layer name, owner, attribute); the owner is a module or a class.
SPANNED = (
    ("quiver.hom_space", quiver, "hom_space"),
    ("quiver.find_isomorphism", quiver, "find_isomorphism"),
    ("quiver.act", quiver, "act"),
    ("quiver.tau_quiver", quiver, "tau_quiver"),
    ("linalg.matmul", CycMatrix, "__matmul__"),
    ("linalg.inverse", CycMatrix, "inverse"),
    ("linalg.det", CycMatrix, "det"),
    ("linalg.rank", CycMatrix, "rank"),
    ("linalg.nullspace", CycMatrix, "nullspace"),
    ("linalg.pencil_det", linalg, "pencil_det"),
    ("families.jumping_pencil", families, "jumping_pencil"),
    ("families.sample_stable_rep", families, "sample_stable_rep"),
    ("braid.build_rep", braid, "build_rep"),
    ("braid.trace_of", braid, "trace_of"),
    ("braid.tau_rep", braid, "tau_rep"),
    ("braid.recover_dimvector", braid, "recover_dimvector"),
    ("braid.is_simple", braid, "is_simple"),
    ("modp.matrix_mod", _modp, "matrix_mod"),
    ("modp.burnside_rank_mod", _modp, "burnside_rank_mod"),
)
COUNTERS = ("quiver.hom_space.system_entries", "modp.certificates",
            "families.sample_stable_rep.draws")
TASK = "task"


def _hom_system_entries(d) -> int:
    # hom_space solves one equation per off-block-diagonal sink entry in the
    # entries of (M1, M2): (n^2 - x^2 - y^2 - z^2) x (a^2 + b^2).
    return (d.n ** 2 - d.x ** 2 - d.y ** 2 - d.z ** 2) * (d.a ** 2 + d.b ** 2)


class _Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, orig, new) -> None:
        """Rebind ``orig`` to ``new`` under every name in every braidrev module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "braidrev" or name.startswith("braidrev.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self.replace(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches = _Patches()

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hom_space(self, args, result) -> None:
        self.counts["quiver.hom_space.system_entries"] += _hom_system_entries(args[0].dims)

    def _after_burnside(self, args, result) -> None:
        if result == args[0].shape[0] ** 2:
            self.counts["modp.certificates"] += 1

    def _count_draw(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if any(spans[i][0] == "families.sample_stable_rep" for i in stack):
                counts["families.sample_stable_rep.draws"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        after = {"quiver.hom_space": self._after_hom_space,
                 "modp.burnside_rank_mod": self._after_burnside}
        for name, owner, attr in SPANNED:
            orig = vars(owner)[attr]
            new = self._span(name, orig, after.get(name))
            if isinstance(owner, type):
                self._patches.replace(owner, attr, new)
            else:
                self._patches.replace_everywhere(orig, new)
        self._patches.replace_everywhere(
            families.random_matrix, self._count_draw(families.random_matrix))

    def uninstall(self) -> None:
        self._patches.restore()

    def run_task(self, fn):
        """Run one task under a root span, so its glue code has a self time."""
        return self._span(TASK, fn)()

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + end - start - inner)
        return totals

    def layer_metrics(self, rounds: int) -> dict:
        """Calls and self time per layer, and the counters, per round."""
        totals = self.self_times()
        out = {}
        for name, _, _ in SPANNED:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self_s / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        # is_simple returns right after a full-rank certificate, and nothing
        # else calls burnside_rank_mod, so every other call fell back.
        out["braid.is_simple.exact_fallbacks"] = (
            out["braid.is_simple.calls"] - out["modp.certificates"])
        return out


def count_field_ops(run) -> dict:
    """Count CycRat multiplications and inversions while ``run()`` executes,
    and the largest numerator or denominator bit length among their results."""
    CycRat = cyclotomic.CycRat
    counts = Counter()
    height = [0]

    def bits(v) -> int:
        return max(max(int(q.numerator).bit_length(), int(q.denominator).bit_length())
                   for q in (v.re, v.rh))

    def counted(key, fn):
        def wrapper(*args):
            result = fn(*args)
            counts[key] += 1
            if isinstance(result, CycRat):
                height[0] = max(height[0], bits(result))
            return result
        return wrapper

    patches = _Patches()
    mul = counted("cyclotomic.mul.calls", vars(CycRat)["__mul__"])
    patches.replace(CycRat, "__mul__", mul)
    patches.replace(CycRat, "__rmul__", mul)
    patches.replace(CycRat, "inverse", counted("cyclotomic.inverse.calls",
                                               vars(CycRat)["inverse"]))
    try:
        run()
    finally:
        patches.restore()
    return {"cyclotomic.mul.calls": counts["cyclotomic.mul.calls"],
            "cyclotomic.inverse.calls": counts["cyclotomic.inverse.calls"],
            "cyclotomic.height_bits.max": height[0]}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernel_times(operands: dict) -> dict:
    """Per-operation cost on fixed operands: CycRat ops over the entry pairs
    of the n = 11 matrices, and CycMatrix matmul, inverse and det."""
    X1, X2 = operands[11]
    pairs = [(u, v) for r1, r2 in zip(X1.entries, X2.entries) for u, v in zip(r1, r2)]
    nonzero = [u for u, _ in pairs if u]
    out = {
        "kernel.cycrat_mul_us": _median_time(lambda: [u * v for u, v in pairs], 7) / len(pairs),
        "kernel.cycrat_add_us": _median_time(lambda: [u + v for u, v in pairs], 7) / len(pairs),
        "kernel.cycrat_inverse_us": _median_time(lambda: [u.inverse() for u in nonzero], 7)
        / len(nonzero),
    }
    for key in out:
        out[key] *= 1e6
    for n, (A, B) in operands.items():
        repeats = 5 if n <= 6 else 3
        out[f"kernel.matmul_n{n}_ms"] = _median_time(lambda: A @ B, repeats) * 1e3
        out[f"kernel.inverse_n{n}_ms"] = _median_time(A.inverse, repeats) * 1e3
        out[f"kernel.det_n{n}_ms"] = _median_time(A.det, repeats) * 1e3
    return out
