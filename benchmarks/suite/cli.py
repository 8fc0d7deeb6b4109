"""Command line of the benchmark: the driver's single runs and the whole suite."""

from __future__ import annotations

import argparse
import json
import os

from .runner import agreement, run_suite, run_workload
from .spec import END_TO_END, PER_LAYER, WORKLOADS
from .workloads import RunConfig

__all__ = ["main"]

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
_UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.suite",
        description="With --workload: one run, its metrics as one JSON object on the last "
                    "line.  Without: all six workloads, untraced and traced, with fixed "
                    "round counts; writes <out>/result.json.",
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="how long one run measures (with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting the per-layer metrics (with --workload)")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole suite this many times and compare the first two")
    parser.add_argument("--smoke", action="store_true", help="corpora / 50, round counts / 10")
    parser.add_argument("--out", default=DEFAULT_OUT, help="directory for results and scratch files")
    parser.add_argument("--child", metavar="PLAN", help=argparse.SUPPRESS)
    return parser


def _print_metrics(metrics: dict[str, float], indent: str = "  ") -> None:
    for name, value in metrics.items():
        print(f"{indent}{name:38s} {value:16.6g} {_UNITS[name]}")


def _single_run(args: argparse.Namespace) -> int:
    result = run_workload(RunConfig(
        args.workload, args.seed, seconds=args.seconds, rounds=None, trace=bool(args.trace),
        smoke=args.smoke, out_dir=args.out,
    ))
    print(f"{args.workload} seed {args.seed}, {'traced' if args.trace else 'untraced'}:")
    _print_metrics(result.metrics)
    for problem in result.problems:
        print(f"  WRONG: {problem}")
    if args.trace:
        with open(os.path.join(args.out, f"trace-{args.workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(result.spans, handle)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": _UNITS[name]} for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def _whole_suite(args: argparse.Namespace) -> int:
    sets = []
    for index in range(args.sets):
        print(f"set {index + 1} of {args.sets} (seed {args.seed}):")
        sets.append(run_suite(args.seed, smoke=args.smoke, out_dir=args.out))
    for name, entry in sets[0].items():
        print(f"\n{name}:")
        _print_metrics(entry["end_to_end"])
        _print_metrics(entry["per_layer"])
        for problem in entry["problems"]:
            print(f"  WRONG: {problem}")
    violations = [
        f"{name}: wrong answers" for run in sets for name, entry in run.items() if not entry["correct"]
    ]
    document = {"seed": args.seed, "smoke": args.smoke, "units": _UNITS, "sets": sets}
    if args.sets > 1:
        rows, violations = agreement(sets[0], sets[1])
        document["agreement"] = {"rows": rows, "violations": violations}
        print(f"\n{'workload':16s} {'metric':22s} {'set 1':>14s} {'set 2':>14s} {'differ':>8s} {'bound':>6s}")
        for row in rows:
            print(f"{row['workload']:16s} {row['metric']:22s} {row['first']:14.6g} {row['second']:14.6g} "
                  f"{row['difference']:8.1%} {row['bound']:6.0%}")
    for violation in violations:
        print(f"VIOLATION: {violation}")
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return 1 if violations else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        from .inprocess import child_main

        return child_main(args.child)
    if args.workload:
        return _single_run(args)
    return _whole_suite(args)
