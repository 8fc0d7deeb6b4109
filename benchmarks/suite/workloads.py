"""The six workloads: set-up, measurement, answer checking, metrics.

Each workload is a small class with four steps the runner calls in order:
``setup`` (timed, possibly several times), ``measure``, ``verify`` and
``metrics``.  The four in-process workloads measure inside a fresh child
process (:mod:`.inprocess`); the two wire workloads drive server
subprocesses (:mod:`.cluster`) from this process's asyncio client
(:mod:`.wire`).  Answers are checked here, after the fact, against the
oracles of :mod:`.corpus`.

One check is weaker than the issue asked for, on purpose.  A wire reply's
``counter`` is read when the reply is written, after the batch was
evaluated, so an update landing in between makes the reply claim a newer
counter than its answer has.  This change may not touch ``src/``, and a
benchmark whose seed run fails measures nothing; so a read passes when its
answer is that of *some* committed snapshot between the last write acked
before it was sent and the counter it claims, and the share of replies whose
claim is ahead of their answer is reported as ``service.counter_skew_frac``.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro import Database, PlanCache
from repro.storage.build import build_database
from repro.storage.generations import export_generation, list_generations, read_pointer
from repro.storage.records import decode_node

from . import corpus
from .cluster import REPO_ROOT, Cluster, child_environment, copy_base
from .measure import mean, median_ms, peak_rss_mb, tail_ms
from .tracing import Tracer, self_times
from .wire import Connection, Reply, run_closed_loops

__all__ = ["RunConfig", "RunResult", "WORKLOAD_CLASSES", "SIZES"]

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT = 170.0

#: Corpus sizes: the real ones, and ``--smoke`` (every corpus / 50, but
#: dblp-1m / 25: two pages, so the page index has a page it can skip).
SIZES = {
    False: {"dblp-1m": 1_000_000, "dblp-250k": 250_000, "treebank": (64, 4000)},
    True: {"dblp-1m": 40_000, "dblp-250k": 5_000, "treebank": (4, 1300)},
}


@dataclass
class RunConfig:
    workload: str
    seed: int
    #: Exactly one of the two stops the timed loop: the driver's ``--seconds``
    #: or the fixed round count of ``python -m benchmarks.suite``.
    seconds: float | None
    rounds: int | None
    trace: bool
    smoke: bool
    out_dir: str


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Why the run is not correct (empty when it is).
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _client_metrics(reads: list[float], writes: list[float]) -> dict[str, float]:
    read_tail, read_pct = tail_ms(reads)
    write_tail, write_pct = tail_ms(writes)
    return {
        "client.write_p50_ms": median_ms(writes),
        "client.read_tail_ms": read_tail,
        "client.read_tail_pct": read_pct,
        "client.read_samples": len(reads),
        "client.write_tail_ms": write_tail,
        "client.write_tail_pct": write_pct,
        "client.write_samples": len(writes),
    }


def _overhead(traced: list[float], untraced: list[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


class _Workload:
    """Shared plumbing: scratch directory, result, set-up bookkeeping."""

    def __init__(self, config: RunConfig, scratch: str):
        self.config = config
        self.scratch = scratch
        self.sizes = SIZES[config.smoke]
        self.result = RunResult(config.workload)
        self.build_nodes = 0
        self.build_seconds = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo ``setup`` so it can run again (and leave nothing behind)."""
        for name in os.listdir(self.scratch):
            path = os.path.join(self.scratch, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def fail(self, n_ops: int, why: str) -> None:
        self.result.failed += n_ops
        if len(self.result.problems) < 20:
            self.result.problems.append(why)

    def layer_metrics(self) -> dict[str, float]:
        return {"storage.build_nodes_per_s": self.build_nodes / self.build_seconds}


# ---------------------------------------------------------------------- #
# In-process workloads (1-4)
# ---------------------------------------------------------------------- #


class _InProcess(_Workload):
    kind = ""

    def plan(self) -> dict:
        raise NotImplementedError

    def measure(self) -> None:
        config = self.config
        plan = {
            "kind": self.kind, "trace": config.trace, "seconds": config.seconds,
            "rounds": config.rounds, "out": self.path("observations.json"), **self.plan(),
        }
        with open(self.path("plan.json"), "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        finished = subprocess.run(
            [sys.executable, RUN_PY, "--child", self.path("plan.json")],
            env=child_environment(), cwd=REPO_ROOT, timeout=CHILD_TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if finished.returncode != 0:
            raise RuntimeError(
                f"the {config.workload} child exited with {finished.returncode}:\n"
                + finished.stderr.decode("utf-8", "replace")[-4000:]
            )
        with open(plan["out"], "r", encoding="utf-8") as handle:
            self.child = json.load(handle)
        self.timed = [o for o in self.child["observations"] if o["round"] is not None]
        self.result.spans = self.child["spans"]

    def stored_bytes(self) -> int:
        """Bytes under the workload's base path (one document unless overridden)."""
        return corpus.base_bytes(self.base)

    def full_scan_pages(self) -> int:
        """Page visits of one backward plus one forward scan of every document."""
        return _scan_pair_pages(Database.open(self.base))

    def metrics(self) -> dict[str, float]:
        child, timed = self.child, self.timed
        reads = [o["s"] for o in timed if o["kind"] == "read"]
        writes = [o["s"] for o in timed if o["kind"] == "write"]
        self.result.attempted = sum(o.get("n_ops", 1) for o in child["observations"])
        round_ops = [0] * child["rounds"]
        for observation in timed:
            round_ops[observation["round"]] += observation.get("n_ops", 1)
        metrics = {
            "read_p50_ms": median_ms(reads),
            # The median round's rate, not ops / wall: a mean takes every
            # stall of a shared box in full.  Failed ops are not taken off:
            # a run that has one is not correct, and is not compared.
            "ops_per_s": statistics.median(
                ops / wall for ops, wall in zip(round_ops, child["round_walls"])
            ),
            "peak_rss_mb": child["peak_rss_mb"],
            "store_bytes_per_node": self.stored_bytes() / child["n_nodes"],
        }
        if not self.config.trace:
            return metrics
        metrics["engine.nodes_per_s"] = child["n_nodes"] * len(reads) / child["wall"]
        metrics.update(self.layer_metrics())
        metrics.update(_client_metrics(reads, writes))
        metrics.update(self.span_metrics())
        traced = [o for o in timed if o["kind"] == "read" and o["traced"]]
        metrics.update({
            "plan.state_file_bytes_per_op": mean(o["state_bytes"] for o in traced),
            "storage.pages_read_per_op": mean(o["pages"] for o in traced),
            "storage.bytes_read_per_op": mean(o["bytes"] for o in traced),
            "storage.seeks_per_op": mean(o["seeks"] for o in traced),
            "storage.pages_skipped_frac": 1.0 - mean(o["pages"] for o in traced) / self.full_scan_pages(),
            "plan.cache_hit_rate": _rate(child["plan_cache"]["hits"], child["plan_cache"]["misses"]),
            "storage.pool_hit_rate": _rate(child["pool"]["hits"], child["pool"]["misses"]),
            "storage.pool_evictions": child["pool"]["evictions"],
            "core.bu_transitions": child["bu_transitions"],
            "core.td_transitions": child["td_transitions"],
            "trace.overhead_frac": _overhead(
                [o["s"] for o in traced],
                [o["s"] for o in timed if o["kind"] == "read" and not o["traced"]],
            ),
        })
        return metrics

    def span_metrics(self) -> dict[str, float]:
        """Per-layer times from the child's spans (one tree per traced op)."""
        spans = self.child["spans"]
        own = self_times(spans)
        by_name: dict[str, list[dict]] = {}
        children: dict[int, set[str]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
            if span["parent"] is not None:
                children.setdefault(span["parent"], set()).add(span["name"])

        def total(name: str) -> float:
            return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

        def durations_ms(name: str, *, without_child: str | None = None) -> list[float]:
            return [
                (s["end"] - s["start"]) * 1000.0
                for s in by_name.get(name, ())
                if without_child is None or without_child not in children.get(s["id"], ())
            ]

        read_ops = sum(1 for o in self.timed if o["kind"] == "read" and o["traced"]) or 1
        evals = by_name.get("plan.batch_eval", ())
        calls = by_name.get("engine.query_many", []) + by_name.get("collection.query", [])
        call_seconds = sum(s["end"] - s["start"] for s in calls)
        opens = durations_ms("storage.open")
        hits = durations_ms("plan.cache_lookup", without_child="tmnf.compile")
        return {
            "xpath.parse_translate_ms": mean(durations_ms("xpath.parse_translate")),
            "tmnf.compile_ms": mean(durations_ms("tmnf.compile", without_child="xpath.parse_translate")),
            "plan.cache_lookup_us": statistics.median(hits) * 1000.0 if hits else 0.0,
            "plan.batch_eval_ms": total("plan.batch_eval") * 1000.0 / read_ops,
            "plan.kernel_self_ms": sum(own[s["id"]] for s in evals) * 1000.0 / read_ops,
            "storage.fetch_ms": total("storage.fetch") * 1000.0 / read_ops,
            "storage.open_ms": statistics.median(opens) if opens else self.child["open_s"] * 1000.0,
            "engine.unattributed_frac": sum(own[s["id"]] for s in calls) / call_seconds if calls else 0.0,
        }


def _scan_pair_pages(database: Database) -> int:
    disk = database.disk
    return 2 * -(-disk.n_nodes * disk.record_size // disk.page_size)


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class _Batch(_InProcess):
    """full-batch and selective-batch: a hot XPath batch on dblp-1m."""

    kind = "batch"
    pool: tuple = ()

    def setup(self) -> None:
        self.base = self.path("dblp")
        self.oracle = corpus.build_dblp(self.base, self.sizes["dblp-1m"], self.config.seed)
        self.build_nodes, self.build_seconds = self.oracle.n_nodes, self.oracle.build_seconds

    def plan(self) -> dict:
        return {"base": self.base, "queries": [query for query, _ in self.pool], "warmup": 2}

    def verify(self) -> None:
        expected = [self.oracle.counts[key] for _, key in self.pool]
        for index, observation in enumerate(self.child["observations"]):
            if observation["counts"] != expected:
                self.fail(1, f"op {index}: counts {observation['counts']} != generator tallies {expected}")

    def metrics(self) -> dict[str, float]:
        metrics = super().metrics()
        if self.config.trace:
            metrics["storage.scan_decode_ms"] = self.child["scan_decode_s"] * 1000.0
        return metrics


class FullBatch(_Batch):
    pool = corpus.FULL_BATCH


class SelectiveBatch(_Batch):
    pool = corpus.SELECTIVE_BATCH


class AdhocSmall(_InProcess):
    """A fresh random query per op over a collection of small documents."""

    kind = "adhoc"
    #: Documents per op whose selected ids are compared with ``engine="memory"``.
    CHECKED_DOCS = 4
    #: Ops scheduled; the timed loop stops long before it runs out of them.
    SCHEDULED = 400

    def setup(self) -> None:
        n_docs, nodes_per_doc = self.sizes["treebank"]
        started = time.perf_counter()
        self.collection, self.trees = corpus.build_treebank_collection(
            self.path("treebank"), n_docs, nodes_per_doc, self.config.seed
        )
        self.build_nodes, self.build_seconds = self.collection.n_nodes, time.perf_counter() - started

    def plan(self) -> dict:
        rng = random.Random(f"adhoc-check/{self.config.seed}")
        queries = corpus.adhoc_queries(self.config.seed, self.SCHEDULED + 2)
        doc_ids = self.collection.doc_ids
        for entry in queries:
            entry["check_docs"] = rng.sample(doc_ids, min(self.CHECKED_DOCS, len(doc_ids)))
        self.ops = queries[2:]
        return {"root": self.collection.root, "warmup_ops": queries[:2], "ops": self.ops}

    def verify(self) -> None:
        doc_ids = self.collection.doc_ids
        oracle_cache = PlanCache()
        references: dict[str, Database] = {}
        for index, observation in enumerate(self.child["observations"]):
            entry = self.ops[index]
            if observation["plan_misses"] < 1:
                self.fail(1, f"op {index}: the query was not fresh (no plan-cache miss)")
                continue
            for doc_id, got in observation["checked_ids"].items():
                reference = references.get(doc_id)
                if reference is None:
                    reference = references[doc_id] = Database.from_unranked(self.trees[doc_ids.index(doc_id)])
                    reference.plan_cache = oracle_cache
                want = reference.query(
                    entry["query"], language=entry["language"], engine="memory"
                ).selected_nodes()
                if got != want or observation["doc_counts"][doc_id] != len(want):
                    self.fail(1, f"op {index} ({entry['query']}): {doc_id} differs from engine=memory")
                    break

    def stored_bytes(self) -> int:
        return corpus.tree_bytes(self.collection.root)

    def full_scan_pages(self) -> int:
        return sum(
            _scan_pair_pages(self.collection.open_database(doc_id)) for doc_id in self.collection.doc_ids
        )

    def metrics(self) -> dict[str, float]:
        metrics = super().metrics()
        if self.config.trace:
            traced = [o for o in self.timed if o["traced"]]
            metrics["collection.per_doc_ms"] = median_ms([o["s"] for o in traced]) / self.child["n_docs"]
            metrics["collection.plan_cache_misses_per_op"] = mean(o["plan_misses"] for o in traced)
        return metrics


class UpdateStream(_InProcess):
    """Single applies, group commits and probe reads on dblp-250k."""

    kind = "update"
    #: Rounds scheduled for the time-boxed mode, about four times what a run needs.
    SCHEDULED_ROUNDS = 24

    def setup(self) -> None:
        self.base = self.path("dblp")
        size, seed = self.sizes["dblp-250k"], self.config.seed
        self.oracle = corpus.build_dblp(self.base, size, seed)
        self.build_nodes, self.build_seconds = self.oracle.n_nodes, self.oracle.build_seconds
        # The schedule is part of the set-up a user of this workload pays:
        # it needs the flat model of the document it will be valid against.
        self.initial = corpus.FlatDocument.from_events(corpus.dblp_events(size, seed, corpus.DblpOracle()))
        self.initial_counter = read_pointer(self.base).counter
        rounds = self.config.rounds + 1 if self.config.rounds is not None else self.SCHEDULED_ROUNDS
        self.rounds_steps = corpus.update_rounds(self.initial.copy(), seed, rounds)

    def plan(self) -> dict:
        return {"base": self.base, "rounds_steps": self.rounds_steps}

    def verify(self) -> None:
        executed = [step for steps in self.rounds_steps[: self.child["rounds"] + 1] for step in steps]
        observations = self.child["observations"]
        if len(executed) != len(observations):
            self.fail(1, f"{len(observations)} steps observed, {len(executed)} scheduled in the rounds run")
            return
        model = self.initial.copy()
        counter = self.initial_counter
        for index, (step, observation) in enumerate(zip(executed, observations)):
            if step["step"] == "probe":
                if observation["counts"] != step["expected"]:
                    self.fail(1, f"probe at step {index}: {observation['counts']} != "
                                 f"model {step['expected']}")
                continue
            ops = [step["op"]] if step["step"] == "apply" else step["ops"]
            for spec in ops:
                model.apply(spec)
            counter += len(ops)
            if observation["counter"] != counter:
                self.fail(len(ops), f"step {index}: counter {observation['counter']}, expected {counter}")
        # apply == rebuild: the spliced generation must decode to the very
        # record stream a from-scratch build of the replayed model gives.
        build_database(model.events(), self.path("rebuilt"))
        if _record_stream(self.base) != _record_stream(self.path("rebuilt")):
            self.fail(1, "the final generation differs from a from-scratch build of the replayed updates")

    def metrics(self) -> dict[str, float]:
        metrics = super().metrics()
        if not self.config.trace:
            return metrics
        commits = [o for o in self.timed if o["kind"] != "read" and o["traced"]]
        n_ops = sum(o["n_ops"] for o in commits) or 1
        for counter in ("data_fsyncs", "dir_fsyncs", "wal_appends", "pointer_swaps"):
            metrics[f"storage.{counter}_per_op"] = sum(o["durability"][counter] for o in commits) / n_ops
        metrics.update({
            "storage.apply_single_ms": median_ms([o["s"] for o in commits if o["kind"] == "write"]),
            "storage.apply_group16_ms": median_ms([o["s"] for o in commits if o["kind"] == "group"]),
            "storage.records_reencoded_per_op": sum(o["records_reencoded"] for o in commits) / n_ops,
            "storage.bytes_copied_per_op": sum(o["bytes_copied"] for o in commits) / n_ops,
            "storage.analysis_cache_hit_rate": mean(o["analysis_hit"] for o in commits),
            "storage.generations_retained": len(list_generations(self.base)),
        })
        return metrics


def _record_stream(base_path: str) -> list[tuple]:
    """``(label, has first child, has second child)`` of every record, in order."""
    database = Database.open(base_path).disk
    size = database.record_size
    with open(database.arb_path, "rb") as handle:
        data = handle.read()
    decoded: dict[bytes, tuple] = {}
    stream = []
    for offset in range(0, len(data), size):
        raw = data[offset:offset + size]
        shape = decoded.get(raw)
        if shape is None:
            record = decode_node(raw, size)
            shape = decoded[raw] = (
                database.label_name(record), record.has_first_child, record.has_second_child
            )
        stream.append(shape)
    return stream


# ---------------------------------------------------------------------- #
# Wire workloads (5-6)
# ---------------------------------------------------------------------- #


class ServeMixed(_Workload):
    """One ``arb serve`` process, two closed-loop connections of mixed bursts."""

    cluster: Cluster | None = None
    N_CONNECTIONS = 2
    SCHEDULED_BURSTS = 400
    WRITE_WINDOW = "0.005"
    #: Probe pairs of the traced routed run (router hop, sync-ack extra).
    PROBE_PAIRS = 10

    def setup(self) -> None:
        self.base = self.path("primary/dblp")
        os.makedirs(os.path.dirname(self.base))
        self.oracle = corpus.build_dblp(self.base, self.sizes["dblp-250k"], self.config.seed, keep_ids=True)
        self.build_nodes, self.build_seconds = self.oracle.n_nodes, self.oracle.build_seconds
        self.initial_counter = read_pointer(self.base).counter
        self.cluster = Cluster(self.scratch)
        try:
            self.front = self.start_cluster()
        except BaseException:
            self.cluster.close()
            raise

    def start_cluster(self):
        """Start the servers; the process clients talk to."""
        self.servers = [self.cluster.serve("serve", self.base, "--write-window", self.WRITE_WINDOW)]
        return self.servers[0]

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        super().teardown()

    def bases(self) -> list[str]:
        """Every base path that must hold the acked writes after the crash."""
        return [self.base]

    def evaluating_servers(self) -> list:
        """The processes whose peak memory ``peak_rss_mb`` reports (the largest)."""
        return self.servers

    # -- measurement ---------------------------------------------------- #

    def measure(self) -> None:
        config = self.config
        bursts = config.rounds if config.rounds is not None else self.SCHEDULED_BURSTS
        # The probes of the traced routed run draw their relabel targets from
        # the same pool of distinct article/author nodes.
        spare = 2 * self.PROBE_PAIRS
        schedule = corpus.wire_bursts(self.oracle, config.seed, self.N_CONNECTIONS, bursts + spare)
        self.spare_updates = [
            line for bursts_of in schedule for burst in bursts_of[bursts:] for line in burst
            if line.get("op") == "update"
        ]
        schedule = [bursts_of[:bursts] for bursts_of in schedule]
        warmup = [
            {"query": query, "language": "xpath", **({"ids": True} if index == 2 else {})}
            for index, query in enumerate(corpus.WIRE_READS)
        ]
        self.tracer = Tracer()
        self.tracer.enabled = config.trace
        try:
            asyncio.run(self._drive(schedule, warmup))
        except Exception as error:
            report = self.cluster.failure_report()
            raise RuntimeError(f"{config.workload} failed: {error!r}\n{report}") from error
        self.result.spans = self.tracer.spans

    async def _drive(self, schedule, warmup) -> None:
        config = self.config
        self.lag_samples: list[int] = []
        sampler = asyncio.ensure_future(self.sample_lag()) if config.trace else None
        try:
            self.replies, self.wall = await run_closed_loops(
                self.front.host, self.front.port, schedule, warmup,
                seconds=config.seconds, rounds=config.rounds,
                tracer=self.tracer if config.trace else None,
            )
        finally:
            if sampler is not None:
                sampler.cancel()
                (outcome,) = await asyncio.gather(sampler, return_exceptions=True)
        if sampler is not None and isinstance(outcome, Exception):
            raise outcome  # the sampler died of something other than our cancel
        self.probe_replies: list[Reply] = []
        self.probes: dict[str, float] = {}
        if config.trace:
            await self.probe()
        self.server_stats = []
        for server in self.servers:
            connection = await Connection.open(server.host, server.port)
            try:
                self.server_stats.append((await connection.request({"op": "stats"}))["stats"])
            finally:
                await connection.close()
        await self.collect_cluster_stats()
        self.peak_rss_mb = max(peak_rss_mb(server.popen.pid) for server in self.evaluating_servers())
        # The crash: no orderly shutdown, no flush.  Everything acked so far
        # must be readable from the files alone.
        self.cluster.kill()

    async def sample_lag(self) -> None:
        """Nothing to sample on a single server."""

    async def probe(self) -> None:
        """Extra traced-run measurements (only the routed workload has any)."""

    async def collect_cluster_stats(self) -> None:
        """Stats ops beyond the servers' own (only the routed workload has a router)."""

    # -- checks --------------------------------------------------------- #

    def verify(self) -> None:
        counts = self.oracle.counts
        school_ids = self.oracle.school_ids
        all_replies = self.replies + self.probe_replies
        acks = sorted((r["_received"], r["counter"]) for r in all_replies if r.is_update and r.get("ok"))
        ack_times = [received for received, _ in acks]
        acked_by = list(itertools.accumulate((counter for _, counter in acks), max))
        stale = skewed = 0
        for reply in all_replies:
            if not reply.get("ok"):
                self.fail(1, f"a request failed: {reply.get('error_type')}: {reply.get('error')}")
                continue
            if reply.is_update:
                continue
            # Every committed update relabelled one distinct article/author
            # to editor, so an answer names the counter of the snapshot it
            # was computed on.  That snapshot must hold every write acked
            # before the read was sent (read your acked writes) and cannot be
            # newer than the counter the reply claims.
            query, count = reply["_request"]["query"], reply["count"]
            n_acked = bisect.bisect_left(ack_times, reply["_sent"])
            acked_before = acked_by[n_acked - 1] if n_acked else 0
            claimed = reply["counter"]
            if query == "//editor":
                answered_at = self.initial_counter + count
            elif query == "//article/author":
                answered_at = self.initial_counter + counts["article/author"] - count
            else:  # answers no relabel changes
                fixed = counts["phdthesis"] if query == "//phdthesis/school" else counts["inproceedings"]
                right = count == fixed and reply.get("selected", {"": school_ids}) == {"": school_ids}
                answered_at = claimed if right else -1
            if not max(acked_before, self.initial_counter) <= answered_at <= claimed:
                stale += 1
                self.fail(1, f"{query}: count {count} is the answer at counter {answered_at}; the reply "
                             f"claims {claimed}, and {acked_before} was acked before the read was sent")
            # The seed's server stamps a reply with the counter it holds when
            # the reply is written, not the one the batch was evaluated at:
            # counted (README, findings), not failed -- see the module note.
            skewed += answered_at != claimed
        self.counter_skew_frac = skewed / max(1, sum(1 for r in all_replies if not r.is_update))
        self.stale_reads = stale
        # On one server the counter a connection sees never goes back.
        if len(self.servers) == 1:
            seen: dict[int, int] = {}
            for reply in self.replies:
                if reply.get("ok") and reply["counter"] < seen.get(reply["_conn"], 0):
                    self.fail(1, f"connection {reply['_conn']} saw its counter go back")
                seen[reply["_conn"]] = max(seen.get(reply["_conn"], 0), reply.get("counter", 0))
        highest_acked = acked_by[-1] if acked_by else self.initial_counter
        self.lost_acked_writes = 0
        for base in self.bases():
            reopened = Database.open(base)
            counter = reopened.disk.change_counter
            relabelled = counter - self.initial_counter
            probe = reopened.query_many(["//article/author", "//editor"], language="xpath")
            answers = [result.count() for result in probe]
            if counter < highest_acked or answers != [counts["article/author"] - relabelled, relabelled]:
                self.lost_acked_writes += max(1, highest_acked - counter)
                self.fail(1, f"{base}: reopened at counter {counter} (highest acked {highest_acked}), "
                             f"probe answers {answers}")
        self.live_nodes = Database.open(self.base).n_nodes

    # -- metrics -------------------------------------------------------- #

    def metrics(self) -> dict[str, float]:
        replies = [r for r in self.replies if r.get("ok")]
        reads = [r for r in replies if not r.is_update]
        writes = [r for r in replies if r.is_update]
        self.result.attempted = len(self.replies) + len(self.probe_replies)
        metrics = {
            "read_p50_ms": median_ms([r.latency for r in reads]),
            "ops_per_s": _closed_loop_rate(self.replies),
            "peak_rss_mb": self.peak_rss_mb,
            # The primary's footprint: it prunes to RETAIN_GENERATIONS, so
            # the figure does not depend on how many updates a run fitted in.
            "store_bytes_per_node": corpus.base_bytes(self.base) / self.live_nodes,
        }
        if not self.config.trace:
            return metrics
        traced = [r for r in reads if r["_traced"]]
        metrics["engine.nodes_per_s"] = self.oracle.n_nodes * len(reads) / self.wall
        metrics.update(self.layer_metrics())
        metrics.update(_client_metrics([r.latency for r in reads], [r.latency for r in writes]))
        metrics.update({
            "client.json_decode_ms": median_ms([r["_decode_s"] for r in replies]),
            "plan.cache_hit_rate": mean(r["plan_cache_hit"] for r in reads),
            "storage.pages_read_per_op": mean(r["arb_pages_read"] for r in reads),
            "storage.generations_retained": len(list_generations(self.base)),
            "service.queued_ms": median_ms([r["queued_seconds"] for r in reads]),
            "service.evaluation_ms": median_ms([r["evaluation_seconds"] for r in reads]),
            "service.wire_ms": median_ms(
                [r.latency - r["queued_seconds"] - r["evaluation_seconds"] for r in reads]
            ),
            "service.batch_size_mean": mean(r["batch_size"] for r in reads),
            "service.coalesced_frac": mean(r["coalesced"] for r in reads),
            "service.write_batch_size_mean": mean(r.get("group_size", 1) for r in writes),
            "service.reply_bytes_mean": mean(r["_bytes"] for r in replies),
            "service.rejected": sum(stats["rejected"] for stats in self.server_stats),
            "service.isolation_retries": sum(stats["isolation_retries"] for stats in self.server_stats),
            "trace.overhead_frac": _overhead(
                [r.latency for r in traced], [r.latency for r in reads if not r["_traced"]]
            ),
            "service.counter_skew_frac": self.counter_skew_frac,
            "check.stale_reads": self.stale_reads,
            "check.lost_acked_writes": self.lost_acked_writes,
        })
        return metrics


def _closed_loop_rate(replies: list[Reply]) -> float:
    """Lines per second of the closed loops: each connection's median burst, summed.

    A burst's rate is its lines over the time from its write to its last
    reply; the connections run side by side, so their rates add.
    """
    bursts: dict[tuple[int, int], list[Reply]] = {}
    for reply in replies:
        bursts.setdefault((reply["_conn"], reply["_burst"]), []).append(reply)
    rates: dict[int, list[float]] = {}
    for (conn, _), lines in bursts.items():
        wall = max(reply["_received"] for reply in lines) - lines[0]["_sent"]
        rates.setdefault(conn, []).append(len(lines) / wall)
    return sum(statistics.median(of_connection) for of_connection in rates.values())


class RoutedMixed(ServeMixed):
    """The same schedule through ``arb router``, a sync primary and two replicas."""

    N_REPLICAS = 2

    def start_cluster(self):
        replica_bases = [self.path(f"replica{index}/dblp") for index in range(self.N_REPLICAS)]
        for base in replica_bases:
            copy_base(self.base, base)
        self.replica_bases = replica_bases
        self.primary = self.cluster.serve(
            "primary", self.base, "--write-window", self.WRITE_WINDOW, "--replicate", "sync"
        )
        self.replicas = [
            self.cluster.serve(f"replica{index}", base) for index, base in enumerate(replica_bases)
        ]
        self.servers = [self.primary, *self.replicas]
        # The router registers the replicas with the primary, which ships
        # them its current generation: the bootstrap is part of set-up.
        return self.cluster.route("router", self.primary, self.replicas)

    def bases(self) -> list[str]:
        return [self.base, *self.replica_bases]

    def evaluating_servers(self) -> list:
        # The replicas evaluate every read by design.  The primary does only
        # as the router's last resort while both replicas are fenced, which
        # happens in some runs and not in others and would more than double
        # its peak: it is left out so the figure repeats.
        return self.replicas

    async def sample_lag(self) -> None:
        """Primary counter minus the slowest replica's, every 100 ms."""
        connections = [await Connection.open(s.host, s.port) for s in self.servers]
        try:
            while True:
                counters = [(await c.request({"op": "replica_stats"}))["counter"] for c in connections]
                self.lag_samples.append(counters[0] - min(counters[1:]))
                await asyncio.sleep(0.1)
        finally:
            for connection in connections:
                await connection.close()

    async def probe(self) -> None:
        """Interleaved A/B probes on the idle cluster, same requests both sides.

        Router hop: a burst of ``replica_stats`` lines through the router
        (which forwards explicit ops to the primary) and straight to the
        primary.  A read burst would bury the hop, about a millisecond, under
        the jitter of a 150 ms scan pair; this op costs the server nothing.
        Sync-ack extra: a single update through the router (the ack waits for
        both replicas) and to a plain ``arb serve`` on a clone of the
        primary's files (nothing to ship).
        """
        copy_base(self.base, self.path("plain/dblp"))
        plain = self.cluster.serve("plain", self.path("plain/dblp"), "--write-window", self.WRITE_WINDOW)
        hop_burst = [{"op": "replica_stats"}] * corpus.READS_PER_BURST
        routed = await Connection.open(self.front.host, self.front.port)
        direct = await Connection.open(self.primary.host, self.primary.port)
        unshipped = await Connection.open(plain.host, plain.port)
        timings: dict[str, list[float]] = {"routed": [], "direct": [], "sync": [], "plain": []}
        try:
            for pair in range(self.PROBE_PAIRS):
                for _ in range(3):
                    for name, connection in (("routed", routed), ("direct", direct)):
                        timings[name].append(max(r.latency for r in await connection.burst(hop_burst)))
                for name, connection, update in (
                    ("sync", routed, self.spare_updates[2 * pair]),
                    ("plain", unshipped, self.spare_updates[2 * pair + 1]),
                ):
                    reply = await connection.request(update)
                    timings[name].append(reply.latency)
                    if name == "sync":
                        self.probe_replies.append(reply)
                    elif not reply.get("ok"):
                        raise RuntimeError(f"the plain server refused a probe update: {reply}")
        finally:
            for connection in (routed, direct, unshipped):
                await connection.close()
        self.probes = {
            "replication.router_hop_ms": median_ms(timings["routed"]) - median_ms(timings["direct"]),
            "replication.sync_ack_extra_ms": median_ms(timings["sync"]) - median_ms(timings["plain"]),
        }

    async def collect_cluster_stats(self) -> None:
        connection = await Connection.open(self.front.host, self.front.port)
        try:
            self.router_stats = await connection.request({"op": "router_stats"})
        finally:
            await connection.close()

    def metrics(self) -> dict[str, float]:
        metrics = super().metrics()
        if not self.config.trace:
            return metrics
        requests = [row["requests"] for row in self.router_stats["replicas"]]
        metrics.update(self.probes)
        metrics.update({
            "replication.ship_bytes_per_update": len(json.dumps(export_generation(self.base))),
            "replication.replica_lag_counters": mean(self.lag_samples),
            "replication.retries": self.router_stats["retries"],
            "replication.replica_share_max": max(requests) / (sum(requests) or 1),
            "replication.replica_store_bytes_per_node": mean(
                corpus.base_bytes(base) for base in self.replica_bases
            ) / self.live_nodes,
        })
        return metrics


WORKLOAD_CLASSES = {
    "full-batch": FullBatch,
    "selective-batch": SelectiveBatch,
    "adhoc-small": AdhocSmall,
    "update-stream": UpdateStream,
    "serve-mixed": ServeMixed,
    "routed-mixed": RoutedMixed,
}
