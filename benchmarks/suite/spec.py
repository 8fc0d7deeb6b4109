"""Names of the benchmark: workloads, end-to-end metrics, per-layer metrics.

This is the single table the runner, the README glossary check and the smoke
test read; ``BENCHMARK.json`` at the repo root states the same names in the
driver's format (the smoke test asserts the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "Metric", "WORKLOADS", "IN_PROCESS", "END_TO_END", "PER_LAYER", "benchmark_json"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Rounds of the fixed-count mode (``python -m benchmarks.suite``); the
    #: driver's ``--seconds`` mode runs whole rounds until the time is up.
    rounds: int


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may worsen;
    #: ``None`` for per-layer metrics, which carry no bound.
    bound: float | None = None
    #: Per-layer only: the end-to-end metric this one should move, and where.
    moves: str = ""
    #: Per-layer only: workloads that enter the layer, where a run reporting 0
    #: (or nothing) for this metric is broken, not idle.  The runner fails such
    #: a run; everywhere else 0 means "this layer did nothing here".
    nonzero_on: tuple[str, ...] = ()


WORKLOADS = (
    Workload(
        "full-batch",
        "hot 8-query XPath batch on dblp-1m: every page read twice, plan cache warm, so "
        "plan/kernel.py, storage/paging.py and the state file do the work; service, router, update none",
        rounds=30,
    ),
    Workload(
        "selective-batch",
        "same document, batch {//book, //phdthesis/school}: the only workload where "
        "storage/pageindex.py decides the cost, so a lost or a better page skip shows here alone",
        rounds=60,
    ),
    Workload(
        "adhoc-small",
        "a fresh random query per op over 64 small treebank documents: plan-cache miss every op, "
        "so parse, compile, automaton growth and 64 opens dominate and scan bytes are small",
        rounds=80,
    ),
    Workload(
        "update-stream",
        "in-process single applies and group commits of 16 on dblp-250k with probe reads: "
        "storage/update.py, wal.py, durability.py and generations.py do the work",
        rounds=20,
    ),
    Workload(
        "serve-mixed",
        "one arb serve process, 2 closed-loop connections of pipelined 7-read + 1-update bursts: "
        "coalescing queue, demux, JSON wire and group commit decide; the router does nothing",
        rounds=50,
    ),
    Workload(
        "routed-mixed",
        "the serve-mixed schedule through arb router, a sync primary and 2 replicas: the difference "
        "to serve-mixed is router hop, replica fan-out and whole-generation shipping",
        rounds=50,
    ),
)

# Every workload reports every end-to-end metric, and none may be 0.  A bound
# is three times the widest ten-seed spread the metric showed on any workload,
# rounded up to a multiple of 5 %, between 5 % and the driver's 25 % (README
# "Bounds and spreads").
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("store_bytes_per_node", "B", "lower", 0.05),
)

_BATCHES = ("full-batch", "selective-batch")
IN_PROCESS = _BATCHES + ("adhoc-small", "update-stream")
_WIRE = ("serve-mixed", "routed-mixed")
_WRITERS = ("update-stream",) + _WIRE
_ALL = IN_PROCESS + _WIRE


def _m(name: str, unit: str, better: str, moves: str, nonzero_on: tuple[str, ...] = ()) -> Metric:
    return Metric(name, unit, better, None, moves, nonzero_on)


_READ = "read_p50_ms"
PER_LAYER = (
    # xpath / tmnf
    _m("xpath.parse_translate_ms", "ms", "lower", f"{_READ} on adhoc-small; none on full-batch", ("adhoc-small",)),
    _m("tmnf.compile_ms", "ms", "lower", f"{_READ} on adhoc-small; none on full-batch", ("adhoc-small",)),
    # plan
    _m("plan.cache_lookup_us", "us", "lower", f"{_READ} on serve-mixed", IN_PROCESS),
    _m("plan.cache_hit_rate", "ratio", "higher", f"{_READ} on serve-mixed", _ALL),
    _m("plan.batch_eval_ms", "ms", "lower", f"{_READ}, ops_per_s on full-batch", IN_PROCESS),
    _m("plan.kernel_self_ms", "ms", "lower", f"{_READ}, ops_per_s on full-batch", IN_PROCESS),
    _m("plan.state_file_bytes_per_op", "B", "lower", f"{_READ} on full-batch", IN_PROCESS),
    _m("engine.unattributed_frac", "ratio", "lower", "honesty check, must stay < 0.10 on full-batch", IN_PROCESS),
    _m("engine.nodes_per_s", "1/s", "higher", "telemetry: read throughput at a stated input size", _ALL),
    # core
    _m("core.bu_transitions", "count", "lower", f"peak_rss_mb, {_READ} on adhoc-small", IN_PROCESS),
    _m("core.td_transitions", "count", "lower", f"peak_rss_mb, {_READ} on adhoc-small", IN_PROCESS),
    # storage, read side
    _m("storage.fetch_ms", "ms", "lower", f"{_READ} on full-batch", IN_PROCESS),
    _m("storage.scan_decode_ms", "ms", "lower", f"{_READ} on full-batch (python kernel only)", _BATCHES),
    _m("storage.pages_read_per_op", "count", "lower", f"{_READ} on selective-batch", _ALL),
    _m("storage.bytes_read_per_op", "B", "lower", f"{_READ} on selective-batch", IN_PROCESS),
    _m("storage.seeks_per_op", "count", "lower", f"{_READ} on selective-batch", IN_PROCESS),
    _m("storage.pages_skipped_frac", "ratio", "higher", f"{_READ} on selective-batch", ("selective-batch",)),
    _m("storage.pool_hit_rate", "ratio", "higher", f"{_READ} on full-batch", IN_PROCESS),
    _m("storage.pool_evictions", "count", "lower", f"{_READ} on full-batch"),
    _m("storage.open_ms", "ms", "lower", f"{_READ} on adhoc-small", IN_PROCESS),
    # storage, write side
    _m("storage.build_nodes_per_s", "1/s", "higher", "setup_s on all", _ALL),
    _m("storage.apply_single_ms", "ms", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.apply_group16_ms", "ms", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.data_fsyncs_per_op", "count", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.dir_fsyncs_per_op", "count", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.wal_appends_per_op", "count", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.pointer_swaps_per_op", "count", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.records_reencoded_per_op", "count", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.bytes_copied_per_op", "B", "lower", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.analysis_cache_hit_rate", "ratio", "higher", "ops_per_s on update-stream", ("update-stream",)),
    _m("storage.generations_retained", "count", "lower", "store_bytes_per_node on update-stream", _WRITERS),
    # collection
    _m("collection.per_doc_ms", "ms", "lower", f"{_READ} on adhoc-small", ("adhoc-small",)),
    _m("collection.plan_cache_misses_per_op", "count", "lower", f"{_READ} on adhoc-small", ("adhoc-small",)),
    # service
    _m("service.queued_ms", "ms", "lower", f"{_READ}, ops_per_s on serve-mixed", _WIRE),
    _m("service.evaluation_ms", "ms", "lower", f"{_READ}, ops_per_s on serve-mixed", _WIRE),
    _m("service.wire_ms", "ms", "lower", f"{_READ} on serve-mixed", _WIRE),
    _m("service.batch_size_mean", "count", "higher", f"{_READ}, ops_per_s on serve-mixed", _WIRE),
    _m("service.coalesced_frac", "ratio", "higher", "ops_per_s on serve-mixed", _WIRE),
    _m("service.write_batch_size_mean", "count", "higher", "ops_per_s on serve-mixed", _WIRE),
    _m("service.reply_bytes_mean", "B", "lower", f"{_READ} on serve-mixed", _WIRE),
    _m("service.rejected", "count", "lower", "ops_per_s on serve-mixed"),
    _m("service.isolation_retries", "count", "lower", "ops_per_s on serve-mixed"),
    _m("service.counter_skew_frac", "ratio", "lower", "finding: replies claiming a newer counter than their answer has"),
    # replication
    _m("replication.router_hop_ms", "ms", "lower", f"{_READ} on routed-mixed; none on serve-mixed", ("routed-mixed",)),
    _m("replication.ship_bytes_per_update", "B", "lower", "ops_per_s on routed-mixed; none on serve-mixed", ("routed-mixed",)),
    _m("replication.sync_ack_extra_ms", "ms", "lower", "ops_per_s on routed-mixed; none on serve-mixed", ("routed-mixed",)),
    _m("replication.replica_lag_counters", "count", "lower", f"{_READ} on routed-mixed"),
    _m("replication.retries", "count", "lower", "ops_per_s on routed-mixed"),
    _m("replication.replica_share_max", "ratio", "lower", f"{_READ} on routed-mixed", ("routed-mixed",)),
    _m("replication.replica_store_bytes_per_node", "B", "lower", "telemetry: replicas keep every shipped generation", ("routed-mixed",)),
    # client (telemetry: tails do not repeat within a tenth on a shared 2-core box)
    _m("client.write_p50_ms", "ms", "lower", "telemetry; bounded through ops_per_s on the write workloads", _WRITERS),
    _m("client.read_tail_ms", "ms", "lower", "telemetry"),
    _m("client.read_tail_pct", "%", "higher", "telemetry: the percentile read_tail_ms is taken at"),
    _m("client.read_samples", "count", "higher", "telemetry", _ALL),
    _m("client.write_tail_ms", "ms", "lower", "telemetry"),
    _m("client.write_tail_pct", "%", "higher", "telemetry: the percentile write_tail_ms is taken at"),
    _m("client.write_samples", "count", "higher", "telemetry", _WRITERS),
    _m("client.json_decode_ms", "ms", "lower", "telemetry", _WIRE),
    # the harness itself
    _m("trace.overhead_frac", "ratio", "lower", "traced vs untraced read_p50_ms; keeps the traced numbers honest"),
    _m("check.failed_frac", "ratio", "lower", "failed, refused or wrong-answer ops / attempted; must be 0"),
    _m("check.stale_reads", "count", "lower", "reads missing a write acked before they were sent, or newer than they claim; must be 0"),
    _m("check.lost_acked_writes", "count", "lower", "acked counters unreadable after SIGKILL + reopen; must be 0"),
)


def benchmark_json(run_seconds: int) -> dict:
    """``BENCHMARK.json`` as this table states it."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
