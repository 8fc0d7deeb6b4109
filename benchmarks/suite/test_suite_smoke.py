"""Smoke test of the benchmark suite: every workload, every metric, tiny corpora.

Runs the suite the way a user does (a subprocess of ``run.py``) with
``--smoke`` -- corpora / 50, round counts / 10 -- and checks the shape of
what it reports, never a timing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from . import corpus
from .runner import reported_metrics
from .spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json
from .tracing import nesting_errors

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(SUITE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_states_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == benchmark_json(declared["run_seconds"])
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in declared["workloads"])
    with open(os.path.join(SUITE, "README.md"), "r", encoding="utf-8") as handle:
        readme = handle.read()
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_same_seed_same_bytes(tmp_path):
    def digest(name: str, seed: int) -> str:
        corpus.build_dblp(str(tmp_path / name), 5_000, seed)
        return hashlib.sha256((tmp_path / f"{name}.arb").read_bytes()).hexdigest()

    assert digest("a", 7) == digest("b", 7)
    assert digest("a", 7) != digest("c", 8)
    assert corpus.adhoc_queries(7, 20) == corpus.adhoc_queries(7, 20)
    assert corpus.adhoc_queries(7, 20) != corpus.adhoc_queries(8, 20)


def test_flat_document_keeps_its_pair_counts():
    # The update oracle answers probes from counts it maintains update by
    # update; they must equal a recount of the document it ends up with.
    model = corpus.FlatDocument.from_events(corpus.dblp_events(5_000, 7, corpus.DblpOracle()))
    rounds = corpus.update_rounds(model, 7, 3)
    recount = corpus.FlatDocument(model.labels, model.depth)
    assert model.pairs == recount.pairs
    assert rounds[-1][-1]["expected"] == [recount.count(query) for query in corpus.PROBE_BATCH]
    assert recount.count("//editor") == 3 * 18  # every relabel of the fixed pattern landed


def test_a_probe_that_reads_nothing_fails_the_run():
    measured = {metric.name: 1.0 for metric in PER_LAYER}
    assert reported_metrics("full-batch", True, measured)[1] == []
    del measured["plan.batch_eval_ms"]  # the span's call site moved: nothing was recorded
    measured["storage.fetch_ms"] = 0.0
    metrics, problems = reported_metrics("full-batch", True, measured)
    assert metrics["plan.batch_eval_ms"] == 0 and len(problems) == 2
    assert reported_metrics("serve-mixed", True, measured)[1] == []  # a layer it never enters
    with pytest.raises(KeyError):
        reported_metrics("full-batch", True, {"plan.batch_evall_ms": 1.0})


def test_single_run_prints_the_drivers_json():
    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        finished = _run("--workload", "selective-batch", "--seed", "3", "--seconds", "0.3",
                        "--trace", str(trace), "--smoke")
        assert finished.returncode == 0, finished.stderr
        last = json.loads(finished.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [metric.name for metric in declared]
        for metric in declared:
            assert last["metrics"][metric.name]["unit"] == metric.unit
            assert math.isfinite(last["metrics"][metric.name]["value"])


def test_smoke_suite_reports_every_metric(tmp_path):
    finished = _run("--smoke", "--seed", "5", "--out", str(tmp_path))
    assert finished.returncode == 0, finished.stdout[-3000:] + finished.stderr[-3000:]
    with open(tmp_path / "result.json", "r", encoding="utf-8") as handle:
        document = json.load(handle)
    (results,) = document["sets"]
    assert list(results) == [workload.name for workload in WORKLOADS]
    for name, entry in results.items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["problems"])
        assert entry["attempted"] >= 1
        assert entry["per_layer"]["check.failed_frac"] == 0
        for kind, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            assert list(entry[kind]) == [metric.name for metric in declared]
            for metric in declared:
                assert math.isfinite(entry[kind][metric.name]), (name, metric.name)
                assert document["units"][metric.name] == metric.unit
        assert all(entry["end_to_end"][metric.name] > 0 for metric in END_TO_END), (name, entry["end_to_end"])
        with open(tmp_path / f"trace-{name}.json", "r", encoding="utf-8") as handle:
            spans = json.load(handle)
        assert spans, name
        assert nesting_errors(spans) == []
        # One request id per request: every root span carries its own.
        roots = [span["request_id"] for span in spans if span["parent"] is None]
        assert len(roots) == len(set(roots)) and None not in roots
    # Each layer does the work in one workload and none in another.  (That a
    # layer a workload enters reports non-zero is the runner's check: such a
    # run would not be ``correct``.)
    layers = {name: entry["per_layer"] for name, entry in results.items()}
    for name in ("replication.router_hop_ms", "replication.ship_bytes_per_update"):
        assert layers["routed-mixed"][name] > 0 and layers["serve-mixed"][name] == 0
    assert layers["update-stream"]["storage.wal_appends_per_op"] > 0
    assert layers["full-batch"]["storage.wal_appends_per_op"] == 0
    assert (layers["selective-batch"]["storage.pages_read_per_op"]
            < layers["full-batch"]["storage.pages_read_per_op"])
    # Every run removes its scratch directory, whatever happened in it.
    assert [name for name in os.listdir(tmp_path) if os.path.isdir(tmp_path / name)] == []
