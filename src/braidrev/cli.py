"""Command-line interface.

Subcommands: classify, verify, reversion, trace, isom, build, and the
experimental jumping.  All randomness is derived from --seed (default 0)
plus the trial index, so identical invocations produce identical bytes.
Values are printed in the exact text syntax for Q(w); no decimal
approximations appear anywhere.

Exit codes: 0 success/consistent, 1 a mathematical check failed (a
command's return value), 2 usage or input errors (decided in ``main``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import classify as classify_mod
from . import families
from .braid import (
    B3Rep,
    EIGHT_SEVENTEEN,
    build_rep,
    parse_braid,
    reverse_braid,
    trace_of,
)
from .quiver import DimVector, QuiverRep, find_isomorphism

_USAGE_ERROR = 2
_CHECK_FAILED = 1


def _at_least(low: int):
    """argparse ``type`` for an integer flag that must be at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def _trial_seed(seed: int, trial: int) -> int:
    # Copied by exactbench/workloads.trial_seed: changing it changes what the benchmark measures.
    return (seed * 1_000_003 + trial) & ((1 << 63) - 1)


def _emit(args, obj, text_lines):
    if args.output == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


# -- classify ------------------------------------------------------------------

def cmd_classify(args) -> int:
    reports = classify_mod.enumerate_components(args.n)
    lines = [f"simple components for n = {args.n}:"]
    for rep in reports:
        lines.append(
            f"  {rep.dims!s:<18} dim {rep.component_dim:<4} {rep.verdict}"
        )
    fixed = sum(1 for rep in reports if rep.verdict == classify_mod.FIXED)
    lines.append(f"total {len(reports)}, fixed {fixed}, detecting {len(reports) - fixed}")
    _emit(args, [rep.to_obj() for rep in reports], lines)
    return 0


# -- verify --------------------------------------------------------------------

def _verify_trial(args, trial: int) -> "families.WitnessReport":
    rng = random.Random(_trial_seed(args.seed, trial))
    if args.family == "even":
        A = families.sample_even_matrix(rng, args.k)
        return families.verify_even_witness(args.k, A)
    if args.family == "odd":
        return families.verify_odd_family(args.k, _trial_seed(args.seed, trial))
    if args.family == "dim42":
        return families.verify_dim42_family(families.sample_dim42_params(rng))
    # the two-dimensional example is the even family's mirror at k = 1
    return families.verify_even_witness(1, families.sample_even_matrix(rng, 1), mirror=True)


def cmd_verify(args) -> int:
    if args.family in ("even", "odd") and args.k is None:
        raise ValueError(f"--k is required for the {args.family} family")
    if args.family in ("dim42", "twodim") and args.k is not None:
        raise ValueError(f"--k does not apply to the {args.family} family")
    reports = [_verify_trial(args, trial) for trial in range(args.trials)]
    lines = []
    for trial, rep in enumerate(reports):
        status = "ok" if rep.isomorphic else "FAILED"
        detail = " ".join(
            f"{name}={'ok' if ok else 'FAIL'}" for name, ok in rep.identities_checked
        )
        lines.append(f"trial {trial:2d}: {status}  {detail}")
    all_ok = all(rep.isomorphic for rep in reports)
    lines.append(
        f"{args.family}: {len(reports)} trials, "
        f"{'all identities hold' if all_ok else 'FAILURES found'}"
    )
    _emit(args, [rep.to_obj() for rep in reports], lines)
    return 0 if all_ok else _CHECK_FAILED


# -- reversion -----------------------------------------------------------------

def _sample_component_rep(dims: DimVector, rng: random.Random) -> QuiverRep:
    if dims == DimVector(3, 3, 2, 2, 2):
        return families.make_dim6_detecting(families.sample_dim6_params(rng))
    return families.sample_stable_rep(dims, rng)


def cmd_reversion(args) -> int:
    alpha = DimVector.parse(args.alpha)
    word = parse_braid(args.braid)
    report = classify_mod.classify_component(alpha)
    if report.verdict == classify_mod.NOT_SIMPLE:
        raise ValueError(f"{alpha} is not the dimension vector of a simple component")
    dims = report.dims
    rev = reverse_braid(word)
    lines = [
        f"component {dims} ({report.verdict}), braid '{word}'",
    ]
    results = []
    separated = False
    for trial in range(args.trials):
        rng = random.Random(_trial_seed(args.seed, trial))
        phi = build_rep(_sample_component_rep(dims, rng))
        t_fwd = trace_of(phi, word)
        t_rev = trace_of(phi, rev)
        differs = t_fwd != t_rev
        separated = separated or differs
        results.append(
            {"trial": trial, "trace": str(t_fwd), "trace_reversed": str(t_rev),
             "separates": differs}
        )
        lines.append(
            f"trial {trial:2d}: Tr(w) = {t_fwd}  Tr(w~) = {t_rev}  "
            f"{'separates' if differs else 'equal'}"
        )
    verdict = "separates" if separated else "no separation"
    lines.append(f"verdict: {verdict}")

    flagship = word == EIGHT_SEVENTEEN or word == reverse_braid(EIGHT_SEVENTEEN)
    consistent = True
    if report.verdict == classify_mod.FIXED and separated:
        consistent = False
        lines.append("INCONSISTENT: separation observed on a fixed component")
    if report.verdict == classify_mod.DETECTING and flagship and not separated:
        consistent = False
        lines.append("INCONSISTENT: the detection braid failed to separate")
    obj = {
        "component": dims.to_obj(),
        "verdict_component": report.verdict,
        "braid": str(word),
        "trials": results,
        "separates": separated,
        "consistent": consistent,
    }
    _emit(args, obj, lines)
    return 0 if consistent else _CHECK_FAILED


# -- trace / isom / build ------------------------------------------------------

def cmd_trace(args) -> int:
    rep = B3Rep.from_obj(_load_json(args.rep))
    word = parse_braid(args.braid)
    value = trace_of(rep, word)
    _emit(args, {"braid": str(word), "trace": str(value)},
          [f"Tr({word or 'empty word'}) = {value}"])
    return 0


def cmd_isom(args) -> int:
    V = QuiverRep.from_obj(_load_json(args.rep1))
    W = QuiverRep.from_obj(_load_json(args.rep2))
    search = find_isomorphism(V, W, random.Random(args.seed))
    lines = [f"hom-space dimension: {search.hom_dim}"]
    if search.witness is not None:
        lines.append("isomorphic: witness found (action verified exactly)")
    elif search.inconclusive:
        lines.append("inconclusive-nonstable: nonzero hom space, no invertible "
                      "element found")
    else:
        lines.append("not isomorphic: no invertible intertwiner exists")
    obj = {
        "hom_dim": search.hom_dim,
        "inconclusive": search.inconclusive,
        "witness": search.witness.to_obj() if search.witness else None,
    }
    _emit(args, obj, lines)
    return 0


def cmd_build(args) -> int:
    phi = build_rep(QuiverRep.from_obj(_load_json(args.quiver)))
    payload = json.dumps(phi.to_obj(), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote representation of size {phi.n} to {args.out}")
    else:
        print(payload)
    return 0


# -- jumping (experimental) ----------------------------------------------------

def cmd_jumping(args) -> int:
    dims = DimVector(2 * args.n, args.n, args.n, args.n, args.n)
    lines = [f"jumping-lines pencils for dims {dims} (experimental, no pass/fail)",
             "tau V has the same pencil for every B: "
             "its products C_i2 B_i2 are the transposes of V's"]
    results = []
    for trial in range(args.trials):
        rng = random.Random(_trial_seed(args.seed, trial))
        p = families.jumping_pencil(QuiverRep(dims, families.random_invertible(rng, dims.n)))
        results.append({"trial": trial, "pencil": str(p)})
        lines.append(f"trial {trial}: pencil      {p}")
    _emit(args, {"dims": dims.to_obj(), "trials": results}, lines)
    return 0


# -- entry point -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrev",
        description=(
            "Exact computation with three-string braid group representations: "
            "classification of transpose-fixed components and braid-reversion "
            "detection.  The central scalar is pinned to 1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials_default=10):
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--trials", type=_at_least(1), default=trials_default)
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="enumerate and classify components")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="verify fixed-point family identities")
    p.add_argument("--family", choices=("even", "odd", "dim42", "twodim"),
                   required=True)
    p.add_argument("--k", type=_at_least(1))
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reversion", help="trace separation of a word vs its reverse")
    p.add_argument("--alpha", required=True, metavar="a,b,x,y,z")
    p.add_argument("--braid", default=str(EIGHT_SEVENTEEN))
    add_common(p)
    p.set_defaults(func=cmd_reversion)

    p = sub.add_parser("trace", help="exact trace of a braid word in a representation")
    p.add_argument("--rep", required=True, help="representation JSON file")
    p.add_argument("--braid", required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("isom", help="isomorphism oracle for two quiver files")
    p.add_argument("--rep1", required=True)
    p.add_argument("--rep2", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_isom)

    p = sub.add_parser("build", help="build a braid representation from quiver JSON")
    p.add_argument("--quiver", required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("jumping", help="experimental: print jumping-line pencils "
                                        "for dims (2n,n;n,n,n)")
    p.add_argument("--n", type=_at_least(2), default=3)
    add_common(p, trials_default=1)
    p.set_defaults(func=cmd_jumping)

    return parser


def main(argv=None) -> int:
    # Exact values may run to any length: lift Python's limit on int <-> str
    # digits (absent before 3.10.7) for this process, not in the library.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, families.SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
