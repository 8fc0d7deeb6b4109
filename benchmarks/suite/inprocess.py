"""The measured side of the four in-process workloads.

Runs in a fresh child process, so the harness's set-up and oracle memory
never count towards ``peak_rss_mb``.  The child receives a *plan* file --
paths of generated databases and the literal requests to issue -- and writes
back raw observations (latencies, answers, the counters the calls returned).
It never sees the seed and judges nothing: the parent checks the answers.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict

from repro import Collection, Database
from repro.plan.cache import default_plan_cache
from repro.storage.bufferpool import default_buffer_pool, resolve_pager
from repro.storage.durability import durability
from repro.storage.update import op_from_spec

from .corpus import PROBE_BATCH, RETAIN_GENERATIONS
from .measure import peak_rss_mb
from .tracing import UNTRACED_EVERY, Tracer

__all__ = ["child_main", "timed_rounds"]


def timed_rounds(run_round, available: int, *, seconds, rounds, tracer: Tracer | None) -> tuple[list[float], float]:
    """Run whole rounds until ``seconds`` are up or ``rounds`` are done.

    ``run_round(index)`` performs one round.  With a ``tracer``, every
    ``UNTRACED_EVERY``-th round runs unpatched, so one run prices the tracing
    against its own untraced rounds; at least one round runs on each side.
    Returns ``(wall seconds of every round, wall seconds of the whole loop)``.
    """
    limit = min(available, rounds) if rounds is not None else available
    at_least = 1 if tracer is None else 2
    round_walls: list[float] = []
    started = time.perf_counter()
    while len(round_walls) < limit:
        if seconds is not None and len(round_walls) >= at_least and time.perf_counter() - started >= seconds:
            break
        if tracer is not None:
            if len(round_walls) % UNTRACED_EVERY:
                tracer.install()
            else:
                tracer.unpatch()
        round_started = time.perf_counter()
        run_round(len(round_walls))
        round_walls.append(time.perf_counter() - round_started)
    return round_walls, time.perf_counter() - started


class _Child:
    """State shared by the three workload bodies of one child run."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.tracer = Tracer()
        self.observations: list[dict] = []
        #: Timed round being run; ``None`` during the warm-up.
        self.round: int | None = None
        self.cache = default_plan_cache()
        self.pool = default_buffer_pool()

    def observe(self, kind: str, seconds: float, **fields) -> None:
        self.observations.append(
            {"kind": kind, "s": seconds, "traced": self.tracer.enabled, "round": self.round, **fields}
        )

    def table_sizes(self, queries, language: str) -> dict[str, int]:
        """Transitions the plans of ``queries`` have memoised so far."""
        plans = [self.cache.get_cached(query, language=language) for query in queries]
        return {
            "bu_transitions": sum(plan.n_cached_bu_transitions for plan in plans),
            "td_transitions": sum(plan.n_cached_td_transitions for plan in plans),
        }

    def measure(self, run_round, available: int) -> dict:
        """The timed region: counters are snapshotted around it alone."""
        plan = self.plan
        cache_before, pool_before = self.cache.stats(), asdict(self.pool.stats)

        def numbered_round(index: int) -> None:
            self.round = index
            run_round(index)

        round_walls, wall = timed_rounds(
            numbered_round, available, seconds=plan["seconds"], rounds=plan["rounds"],
            tracer=self.tracer if plan["trace"] else None,
        )
        self.tracer.unpatch()
        cache_after, pool_after = self.cache.stats(), asdict(self.pool.stats)
        return {
            "rounds": len(round_walls),
            "round_walls": round_walls,
            "wall": wall,
            "plan_cache": {k: cache_after[k] - cache_before[k] for k in ("hits", "misses")},
            "pool": {k: pool_after[k] - pool_before[k] for k in ("hits", "misses", "evictions")},
        }


def _timed_open(opener, *args, **kwargs):
    started = time.perf_counter()
    opened = opener(*args, **kwargs)
    return opened, time.perf_counter() - started


def _io(arb_io) -> dict:
    return {"pages": arb_io.pages_read, "bytes": arb_io.bytes_read, "seeks": arb_io.seeks}


def _batch_workload(child: _Child) -> dict:
    """full-batch / selective-batch: one hot ``query_many`` per round."""
    plan = child.plan
    queries = plan["queries"]
    database, open_s = _timed_open(Database.open, plan["base"], pager=resolve_pager())
    for _ in range(plan["warmup"]):
        database.query_many(queries, language="xpath")

    def run_round(index: int) -> None:
        started = time.perf_counter()
        with child.tracer.request(index):
            batch = database.query_many(queries, language="xpath")
        child.observe(
            "read", time.perf_counter() - started,
            counts=[result.count() for result in batch],
            state_bytes=batch.state_file_bytes, **_io(batch.arb_io),
        )

    extra = child.measure(run_round, 10**9)
    extra.update(n_nodes=database.n_nodes, open_s=open_s, **child.table_sizes(queries, "xpath"))
    if plan["trace"]:
        # The pure-Python record decode both scan directions share; the numpy
        # kernel bypasses it, so it is timed directly, once.
        started = time.perf_counter()
        for _ in database.disk.records_forward():
            pass
        for _ in database.disk.records_backward():
            pass
        extra["scan_decode_s"] = time.perf_counter() - started
    return extra


def _adhoc_workload(child: _Child) -> dict:
    """adhoc-small: one never-seen query over the whole collection per round."""
    plan = child.plan
    collection, open_s = _timed_open(Collection.open, plan["root"])
    for entry in plan["warmup_ops"]:
        collection.query(entry["query"], language=entry["language"])
    ops = plan["ops"]

    def run_round(index: int) -> None:
        entry = ops[index]
        misses_before = child.cache.stats()["misses"]
        started = time.perf_counter()
        with child.tracer.request(index):
            result = collection.query(entry["query"], language=entry["language"])
        seconds = time.perf_counter() - started
        selected = result.selected_nodes()
        child.observe(
            "read", seconds,
            doc_counts={doc.doc_id: doc.count() for doc in result.documents},
            checked_ids={doc_id: selected[doc_id] for doc_id in entry["check_docs"]},
            plan_misses=child.cache.stats()["misses"] - misses_before,
            state_bytes=sum(doc.state_file_bytes for doc in result.documents),
            **_io(result.arb_io),
        )

    extra = child.measure(run_round, len(ops))
    extra.update(n_nodes=collection.n_nodes, n_docs=len(collection), open_s=open_s)
    # Every op compiled its own plan, so the lazily built automaton tables
    # of the run are the sum over the ops that ran.
    for entry in ops[: extra["rounds"]]:
        for key, size in child.table_sizes([entry["query"]], entry["language"]).items():
            extra[key] = extra.get(key, 0) + size
    return extra


def _update_workload(child: _Child) -> dict:
    """update-stream: single applies, probes and group commits, in order."""
    plan = child.plan
    database, open_s = _timed_open(Database.open, plan["base"], pager=resolve_pager())
    request_ids = iter(range(10**9))

    def run_step(step: dict) -> None:
        kind = step["step"]
        before = durability.snapshot()
        started = time.perf_counter()
        with child.tracer.request(next(request_ids)):
            if kind == "probe":
                result = database.query_many(PROBE_BATCH, language="xpath")
            elif kind == "apply":
                result = database.apply(op_from_spec(step["op"]), retain_generations=RETAIN_GENERATIONS)
            else:
                result = database.apply_many(
                    [op_from_spec(spec) for spec in step["ops"]], retain_generations=RETAIN_GENERATIONS
                )
        seconds = time.perf_counter() - started
        if kind == "probe":
            child.observe(
                "read", seconds, counts=[r.count() for r in result],
                state_bytes=result.state_file_bytes, **_io(result.arb_io),
            )
            return
        stats = result.statistics
        child.observe(
            "write" if kind == "apply" else "group", seconds,
            n_ops=1 if kind == "apply" else result.n_ops, counter=result.counter,
            records_reencoded=stats.records_reencoded, bytes_copied=stats.bytes_copied,
            analysis_hit=stats.analysis_cache_hit, durability=asdict(durability.since(before)),
        )

    rounds = plan["rounds_steps"]
    for step in rounds[0]:  # the warm-up round: executed and checked, never timed
        run_step(step)

    def run_round(index: int) -> None:
        for step in rounds[index + 1]:
            run_step(step)

    extra = child.measure(run_round, len(rounds) - 1)
    extra.update(n_nodes=database.n_nodes, open_s=open_s, **child.table_sizes(PROBE_BATCH, "xpath"))
    return extra


_WORKLOADS = {"batch": _batch_workload, "adhoc": _adhoc_workload, "update": _update_workload}


def child_main(plan_path: str) -> int:
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    child = _Child(plan)
    extra = _WORKLOADS[plan["kind"]](child)
    extra.update(
        observations=child.observations, peak_rss_mb=peak_rss_mb(), spans=child.tracer.spans
    )
    with open(plan["out"], "w", encoding="utf-8") as handle:
        json.dump(extra, handle)
    return 0
