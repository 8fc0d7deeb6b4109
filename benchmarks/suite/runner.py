"""Run one workload, or the whole suite, and compare two sets of runs."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time

from .spec import END_TO_END, IN_PROCESS, PER_LAYER, WORKLOADS
from .workloads import WORKLOAD_CLASSES, RunConfig, RunResult

__all__ = ["run_workload", "reported_metrics", "run_suite", "agreement", "EXACT_COUNTERS"]

#: Per-layer counts that must repeat exactly between two sets of the
#: fixed-count mode, on the in-process workloads (one client, no timers).
EXACT_COUNTERS = (
    "storage.pages_read_per_op",
    "storage.bytes_read_per_op",
    "storage.data_fsyncs_per_op",
    "storage.dir_fsyncs_per_op",
    "storage.wal_appends_per_op",
)
#: A run that reports ``setup_s`` sets up at least ``SETUP_REPEATS`` times and
#: the median is the metric.  A set-up of a second moves more between runs
#: than one of three, so cheap ones repeat until ``SETUP_SECONDS`` are spent
#: or ``SETUP_REPEATS_MOST`` are done.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
SETUP_REPEATS_MOST = 7
_DECLARED = {metric.name for metric in END_TO_END + PER_LAYER}


def run_workload(config: RunConfig) -> RunResult:
    """Set up, measure, check; the run's result.

    With ``trace`` off the metrics are exactly the end-to-end ones; with it
    on, exactly the per-layer ones -- a layer the workload never enters
    reports 0 for its counts and times.  A 0 (or nothing) where the spec says
    the workload enters the layer makes the run incorrect, and a metric name
    the spec does not declare is an error: a probe that stopped seeing its
    call site must not pass for an idle layer.  An untraced full-size run
    sets up several times (see ``SETUP_REPEATS``) and reports the median as
    ``setup_s``; smoke and traced runs set up once.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{config.workload}-", dir=config.out_dir)
    workload = WORKLOAD_CLASSES[config.workload](config, scratch)
    setups: list[float] = []
    try:
        while True:
            if setups:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            if config.smoke or config.trace:
                break
            if len(setups) >= SETUP_REPEATS and (
                sum(setups) >= SETUP_SECONDS or len(setups) >= SETUP_REPEATS_MOST
            ):
                break
        workload.measure()
        workload.verify()
        measured = workload.metrics()
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    result = workload.result
    measured["setup_s"] = statistics.median(setups)
    measured["check.failed_frac"] = result.failed / max(result.attempted, 1)
    result.metrics, problems = reported_metrics(config.workload, config.trace, measured)
    result.problems += problems
    return result


def reported_metrics(workload: str, trace: bool, measured: dict) -> tuple[dict[str, float], list[str]]:
    """The metrics one run prints, and what is wrong with them.

    Exactly the per-layer metrics of the spec when ``trace`` is on, exactly
    the end-to-end ones when it is off; what the workload did not measure
    reads 0.  Raises ``KeyError`` for a measured name the spec does not declare.
    """
    undeclared = sorted(set(measured) - _DECLARED)
    if undeclared:
        raise KeyError(f"{workload} measured metrics spec.py does not declare: {undeclared}")
    metrics, problems = {}, []
    for metric in PER_LAYER if trace else END_TO_END:
        value = metrics[metric.name] = float(measured.get(metric.name, 0.0))
        if not math.isfinite(value):
            problems.append(f"{metric.name} is not finite: {value}")
        elif value == 0 and (metric.bound is not None or workload in metric.nonzero_on):
            problems.append(f"{metric.name} is missing or 0, but {workload} enters that layer")
    return metrics, problems


def run_suite(seed: int, *, smoke: bool, out_dir: str, log=print) -> dict:
    """Every workload once untraced and once traced, with fixed round counts.

    The traced run does half the rounds.  Returns ``{workload: {...}}`` and
    writes each traced run's spans to ``<out_dir>/trace-<workload>.json``.
    """
    results: dict[str, dict] = {}
    for workload in WORKLOADS:
        rounds = max(2, workload.rounds // 10) if smoke else workload.rounds
        entry: dict = {"correct": True, "problems": []}
        for trace in (False, True):
            config = RunConfig(
                workload.name, seed, seconds=None, rounds=max(2, rounds // 2) if trace else rounds,
                trace=trace, smoke=smoke, out_dir=out_dir,
            )
            started = time.perf_counter()
            result = run_workload(config)
            log(f"{workload.name:16s} {'traced  ' if trace else 'untraced'} "
                f"{time.perf_counter() - started:6.1f}s  attempted {result.attempted}  "
                f"failed {result.failed}{'' if result.correct else '  INCORRECT'}")
            entry["per_layer" if trace else "end_to_end"] = result.metrics
            entry["correct"] = entry["correct"] and result.correct
            entry["problems"] += result.problems
            if trace:
                trace_path = os.path.join(out_dir, f"trace-{workload.name}.json")
                with open(trace_path, "w", encoding="utf-8") as handle:
                    json.dump(result.spans, handle)
            else:
                entry["attempted"], entry["failed"] = result.attempted, result.failed
        results[workload.name] = entry
    return results


def agreement(first: dict, second: dict) -> tuple[list[dict], list[str]]:
    """Two sets of runs side by side: ``(rows, violations)``.

    One row per workload and end-to-end metric with both values and their
    relative difference against the declared bound; exact counters of the
    in-process workloads must be identical.
    """
    rows, violations = [], []
    for workload in WORKLOADS:
        a, b = first[workload.name], second[workload.name]
        for metric in END_TO_END:
            x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            difference = abs(y - x) / x
            rows.append({
                "workload": workload.name, "metric": metric.name, "unit": metric.unit,
                "first": x, "second": y, "difference": difference, "bound": metric.bound,
            })
            if difference > metric.bound:
                violations.append(f"{workload.name} {metric.name}: {x:.6g} vs {y:.6g} "
                                  f"differ by {difference:.1%} > bound {metric.bound:.0%}")
        if workload.name in IN_PROCESS:
            for name in EXACT_COUNTERS:
                if a["per_layer"][name] != b["per_layer"][name]:
                    violations.append(f"{workload.name} {name}: {a['per_layer'][name]} != "
                                      f"{b['per_layer'][name]} (must repeat exactly)")
        for entry in (a, b):
            if not entry["correct"]:
                violations.append(f"{workload.name}: wrong answers: {entry['problems'][:3]}")
    return rows, violations
