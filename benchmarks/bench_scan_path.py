"""Scan-path benchmarks: the bench-regression subset, exercised in-tree.

The real gate runs ``python -m repro.bench.regression`` against the
committed ``BENCH_baseline.json``; this pytest wrapper drives the same
harness at a reduced scale so the coverage job exercises the runner, and
pins its two structural invariants:

* a disk query batch costs exactly one forward plus one backward scan of
  the document, counter for counter, and
* a run always passes a comparison against itself, and detects an injected
  counter drift.
"""

from __future__ import annotations

import copy

from benchmarks.conftest import report
from repro.bench.regression import compare_benchmarks, run_benchmarks
from repro.bench.reporting import format_table


def _small_run(tmp_path) -> dict:
    return run_benchmarks(repeats=1, treebank_nodes=4_000, acgt_exponent=10, temp_dir=str(tmp_path))


def test_query_batch_counters_are_two_scans(benchmark, tmp_path):
    payload = benchmark.pedantic(lambda: _small_run(tmp_path), rounds=1, iterations=1)
    rows = [
        {
            "benchmark": entry["name"],
            "ms": round(entry["wall_seconds"] * 1000, 2),
            "pages": entry["pages_read"],
            "seeks": entry["seeks"],
            "bytes": entry["bytes_read"],
        }
        for entry in payload["benchmarks"]
    ]
    report("Scan-path benchmarks (reduced scale)", format_table(rows))
    by_name = {entry["name"]: entry for entry in payload["benchmarks"]}
    batches = [name for name in by_name if name.startswith("query-batch/")]
    assert batches
    for name in batches:
        forward = by_name[name.replace("query-batch/", "scan-forward/")]
        backward = by_name[name.replace("query-batch/", "scan-backward/")]
        for field in ("pages_read", "seeks", "bytes_read"):
            assert by_name[name][field] == forward[field] + backward[field], (name, field)
        assert forward["pages_read"] >= 1
        assert forward["seeks"] == backward["seeks"] == 1


def test_compare_benchmarks_self_and_drift(tmp_path):
    payload = _small_run(tmp_path)
    assert compare_benchmarks(payload, payload) == []

    drifted = copy.deepcopy(payload)
    drifted["benchmarks"][0]["pages_read"] += 1
    failures = compare_benchmarks(payload, drifted)
    assert len(failures) == 1 and "pages_read" in failures[0]

    slower = copy.deepcopy(payload)
    for entry in slower["benchmarks"]:
        entry["wall_seconds"] *= 2.0
    failures = compare_benchmarks(payload, slower)
    assert len(failures) == sum(e.get("wall_gated", True) for e in payload["benchmarks"])
    assert all("wall-clock regressed" in failure for failure in failures)

    renamed = copy.deepcopy(payload)
    renamed["benchmarks"][0]["name"] = "scan-forward/unknown/buffered"
    failures = compare_benchmarks(payload, renamed)
    assert any("missing from this run" in failure for failure in failures)
    assert any("not in the baseline" in failure for failure in failures)
