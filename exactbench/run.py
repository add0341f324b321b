"""Exact-arithmetic benchmark for braidrev: one workload per run.

    python3 exactbench/run.py --workload odd-fixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; braidrev is imported from its ``src``.
A run repeats rounds (see workloads.py) until the measured time reaches
--seconds, always finishing the round it is in, then checks every output
with the benchmark's own arithmetic and prints one JSON object as its last
line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The end-to-end times are scaled by a calibration loop (see
``_calibration``).  Earlier lines record the environment and, with
--trace 0, the unscaled times.  Exit code 0 on a completed run (even with
failed checks, which set "correct" to false), 2 on a usage error or when
braidrev cannot be imported from the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("odd-fixed", "reversion-detect",
                                 "jumping-pencil", "semisimple-split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_braidrev():
    sys.path.insert(0, str(SRC))
    try:
        import braidrev
    except ImportError as exc:
        print(f"error: cannot import braidrev from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if Path(braidrev.__file__).resolve().parent.parent != SRC:
        print(f"error: braidrev was imported from {braidrev.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return braidrev


def _environment(braidrev) -> dict:
    import numpy
    rational = braidrev.Rational
    return {"rational_backend": f"{rational.__module__}.{rational.__qualname__}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cores": os.cpu_count()}


# A fixed loop over stdlib Fractions, timed before every task and after the
# last.  The machine this benchmark was defined on changed speed by up to
# 30 % from one minute to the next, for this loop as for braidrev; dividing
# each round by its median loop time removes most of that common factor.
_CAL_A = Fraction(3 ** 200 + 1, 7 ** 150 + 3)
_CAL_B = Fraction(5 ** 170 + 2, 11 ** 120 + 5)
CALIBRATION_S = 0.02  # the loop's time on the machine that defined the benchmark


def _calibration() -> float:
    t = time.perf_counter()
    for _ in range(1200):
        _CAL_A * _CAL_B + _CAL_A
    return time.perf_counter() - t


def _run_round(tasks, run=lambda fn: fn()):
    """Run every task; returns (task times, calibration times, outputs, failures)."""
    times, cals, outputs, failed = [], [], [], 0
    for task in tasks:
        cals.append(_calibration())
        t = time.perf_counter()
        try:
            outputs.append((task, run(task.run)))
        except Exception:  # a failed library call is counted, not fatal
            failed += 1
            print(f"task {task.label} failed:", file=sys.stderr)
            traceback.print_exc()
        times.append(time.perf_counter() - t)
    cals.append(_calibration())
    return times, cals, outputs, failed


def _measure(wl, seed, seconds, first, run=lambda fn: fn(), before=None, after=None):
    """Rounds 0, 1, ... until the measured time reaches ``seconds``.

    Returns [(task times, calibration times)] per round, the outputs and
    the failure count.  Inputs for round r > 0 are built between rounds,
    outside the clock and outside ``before``/``after`` (which install and
    remove the tracer)."""
    rounds, outputs, failed = [], [], 0
    tasks, measured = first, 0.0
    while True:
        if before:
            before()
        times, cals, outs, fails = _run_round(tasks, run)
        if after:
            after()
        rounds.append((times, cals))
        outputs += outs
        failed += fails
        measured += sum(times)
        if measured >= seconds:
            return rounds, outputs, failed
        tasks = wl.tasks(seed, len(rounds))


def _check(wl, outputs, seed) -> list:
    records = [wl.record(task, out) for task, out in outputs]
    problems = [p for rec in records for p in wl.check(rec)]
    problems += wl.check_run(records, seed)
    # Self-test: the checker must reject one corrupted output.
    if records and not wl.check(wl.corrupt(records[0])):
        problems.append("self-test: the checker accepted a corrupted output")
    return problems


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("bits.max", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    braidrev = _import_braidrev()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    first = wl.tasks(args.seed, 0)
    setup_s = time.perf_counter() - T0
    env = _environment(braidrev)
    print(json.dumps({"env": env}), flush=True)

    if not args.trace:
        rounds, outputs, failed = _measure(wl, args.seed, args.seconds, first)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = [CALIBRATION_S / statistics.median(cals) for _, cals in rounds]
        metrics = {
            "setup_s": _metric(setup_s * scale[0], "s"),
            "solve_s": _metric(statistics.median(
                sum(times) * k for (times, _), k in zip(rounds, scale)), "s"),
            "task_p50_s": _metric(statistics.median(
                t * k for (times, _), k in zip(rounds, scale) for t in times), "s"),
            "peak_rss_mb": _metric(peak_mb, "MiB"),
        }
        print(json.dumps({"unscaled": {
            "setup_s": setup_s,
            "solve_s": statistics.median(sum(times) for times, _ in rounds),
            "task_p50_s": statistics.median(t for times, _ in rounds for t in times),
            "calibration_s": statistics.median(c for _, cals in rounds for c in cals)}}))
    else:
        metrics, rounds, outputs, failed = _traced(wl, args, env, first)

    problems = _check(wl, outputs, args.seed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(times) for times, _ in rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


def _traced(wl, args, env, first):
    import tracer
    import workloads

    tr = tracer.Tracer()
    rounds, outputs, failed = _measure(
        wl, args.seed, args.seconds, first,
        run=tr.run_task, before=tr.install, after=tr.uninstall)
    round_s = [sum(times) for times, _ in rounds]
    # Round 0 again, untraced, as the reference for the tracing overhead.
    # It runs second so that warm-up cannot make the overhead look smaller.
    base_times, _, base_outputs, _ = _run_round(wl.tasks(args.seed, 0))
    layers = tr.layer_metrics(len(rounds))
    count_tasks = wl.tasks(args.seed, 0)
    layers.update(tracer.count_field_ops(lambda: [t.run() for t in count_tasks]))
    layers.update(tracer.kernel_times(workloads.kernel_operands(args.seed)))
    layers["trace.overhead_s"] = round_s[0] - sum(base_times)

    metrics = {name: _metric(value, _layer_unit(name)) for name, value in layers.items()}

    shares = {name: self_s / sum(round_s) for name, (_, self_s) in tr.self_times().items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl.name}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "env": env,
                   "round_s": round_s, "self_share": shares, "spans": tr.spans}, fh)
    return metrics, rounds, base_outputs + outputs, failed


if __name__ == "__main__":
    sys.exit(main())
