"""Sharded, parallel evaluation of query batches over a document corpus.

The coordinator (:func:`run_collection_query`) partitions the documents of a
collection into one shard per worker (greedy longest-processing-time on the
manifest's node counts, so shards are balanced by document size, not count).
The number of shards picks the pool:

* one shard (``n_workers == 1``, or a one-document collection) runs in the
  calling thread against the collection's keyed
  :class:`~repro.plan.cache.PlanCache`, so a plan compiled for the first
  document is a cache *hit* for every other one and its memoised automaton
  tables are reused corpus-wide;
* more shards run on a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
  two scans are pure Python, so only processes evaluate in parallel.  Worker
  processes cannot share in-memory plans: each shard compiles into a
  process-local cache, shared by the documents *within* the shard, and the
  coordinator's cache still serves repeated collection-level calls.  Workers
  start from a fork server, never as a fork of the caller: a caller with
  other threads (a writer committing, a service's workers) may hold a lock
  at the instant of a fork, and the child would wait on that lock forever.
  So, as with any ``spawn`` pool, a script that queries with several workers
  needs the ``if __name__ == "__main__":`` guard.

Whatever the pool, each document is evaluated by the one plan dispatcher,
:meth:`Database.execute_plans <repro.engine.Database.execute_plans>`, exactly
as :meth:`Database.query_many <repro.engine.Database.query_many>` would: under
``auto`` or ``disk`` one backward plus one forward scan of the document's
`.arb` file for the *whole* batch, a single query being a batch of one.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.collection.manifest import DocumentEntry
from repro.collection.result import CollectionQueryResult, DocumentQueryResult
from repro.core.two_phase import EvaluationStatistics
from repro.errors import EvaluationError
# Not called here any more (documents run through Database.execute_plans);
# the name stays importable from this module only because
# benchmarks/suite/tracing.py patches it by module attribute.
from repro.plan.batch import evaluate_batch_on_disk  # noqa: F401
from repro.plan.cache import PlanCache
from repro.plan.options import ExecutionOptions
from repro.storage.bufferpool import resolve_pager
from repro.storage.paging import IOStatistics
from repro.tmnf.program import TMNFProgram

__all__ = ["partition_documents", "run_collection_query"]


# ---------------------------------------------------------------------- #
# Sharding
# ---------------------------------------------------------------------- #


def partition_documents(
    entries: Sequence[DocumentEntry], n_shards: int
) -> list[list[DocumentEntry]]:
    """Split ``entries`` into at most ``n_shards`` balanced shards.

    Greedy LPT: documents are placed largest-first onto the currently
    lightest shard (by node count), which keeps per-shard work within a
    factor ~4/3 of optimal.  Deterministic for a given manifest.
    """
    if n_shards < 1:
        raise EvaluationError("a collection query needs at least one worker")
    n_shards = min(n_shards, len(entries))
    shards: list[list[DocumentEntry]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    ordered = sorted(entries, key=lambda entry: (-entry.n_nodes, entry.doc_id))
    for entry in ordered:
        lightest = loads.index(min(loads))
        shards[lightest].append(entry)
        loads[lightest] += max(entry.n_nodes, 1)
    return shards


# ---------------------------------------------------------------------- #
# Shard evaluation (runs inside a worker)
# ---------------------------------------------------------------------- #


@dataclass
class _ShardTask:
    """Everything a worker needs; plain data so the process pool can pickle it."""

    shard_index: int
    #: ``(doc_id, absolute base path, pinned generation)`` -- the generation
    #: is resolved once by the coordinator from the manifest, so every shard
    #: of one call reads the same snapshot of every document, even while a
    #: writer applies updates mid-query.
    documents: list[tuple[str, str, int]]
    queries: list[str | TMNFProgram]
    options: ExecutionOptions
    language: str = "tmnf"
    query_predicate: str | tuple[str, ...] | None = None


@dataclass
class _ShardOutcome:
    shard_index: int
    documents: list[DocumentQueryResult] = field(default_factory=list)


def evaluate_shard(task: _ShardTask, cache: PlanCache | None = None) -> _ShardOutcome:
    """Evaluate every document of one shard, sequentially.

    ``cache`` is the shared collection cache when the shard runs in the
    calling thread; a worker process passes ``None`` and gets a fresh
    process-local cache whose plans are still reused across the shard's
    documents.
    """
    from repro.engine import Database  # local import: keep module import light

    if cache is None:
        cache = PlanCache()
    outcome = _ShardOutcome(shard_index=task.shard_index)
    # All shards of one process share the default buffer pool (attached here,
    # in the worker: tasks are pickled), so a page one worker read is a
    # memory hit for every other scan of that document.
    pager = resolve_pager()
    for doc_id, base_path, generation in task.documents:
        database = Database.open(base_path, pager=pager, generation=generation)
        database.plan_cache = cache
        try:
            outcome.documents.append(_evaluate_document(doc_id, database, task))
        finally:
            database.close()
    return outcome


def _evaluate_document(doc_id: str, database, task: _ShardTask) -> DocumentQueryResult:
    plans, hits = zip(*(
        database.plan(query, language=task.language, query_predicate=task.query_predicate)
        for query in task.queries
    ))
    batch = database.execute_plans(plans, task.options, hits=hits)
    return DocumentQueryResult(
        doc_id=doc_id,
        shard_index=task.shard_index,
        results=batch.results,
        arb_io=batch.arb_io,
        state_io=batch.state_io,
        state_file_bytes=batch.state_file_bytes,
        backend=batch.backend,
        n_nodes=database.n_nodes,
    )


def _worker_context():
    """The fork server's context, its server preloading the evaluator once."""
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.engine", __name__])
    return context


# ---------------------------------------------------------------------- #
# Coordinator
# ---------------------------------------------------------------------- #


def run_collection_query(
    entries: Sequence[DocumentEntry],
    root: str,
    queries: Sequence[str | TMNFProgram],
    *,
    cache: PlanCache,
    options: ExecutionOptions,
    language: str = "tmnf",
    query_predicate: str | tuple[str, ...] | None = None,
    n_workers: int = 1,
) -> CollectionQueryResult:
    """Evaluate ``queries`` over every document, sharded across ``n_workers``.

    Every worker gets ``options`` whole and hands it to the plan dispatcher
    per document; its scans share the worker process's buffer pool.
    """
    if not queries:
        raise EvaluationError("a collection query needs at least one query")
    if not entries:
        raise EvaluationError("the collection has no documents")
    if isinstance(n_workers, bool) or not isinstance(n_workers, int) or n_workers < 1:
        raise EvaluationError(f"n_workers must be an int of at least 1, not {n_workers!r}")

    # Compile (or look up) every query once through the collection's shared
    # keyed cache.  A shard in the calling thread then hits these very
    # plans; for worker processes this records the collection-level
    # hit/miss and provides the programs of the result.
    planned = [
        cache.lookup(query, language=language, query_predicate=query_predicate)
        for query in queries
    ]
    programs = [plan.program for plan, _ in planned]

    shards = partition_documents(entries, n_workers)
    tasks = [
        _ShardTask(
            shard_index=index,
            documents=[
                (entry.doc_id, entry.base_path(root), entry.generation)
                for entry in shard
            ],
            queries=list(queries),
            options=options,
            language=language,
            query_predicate=query_predicate,
        )
        for index, shard in enumerate(shards)
    ]

    started = time.perf_counter()
    if len(tasks) == 1:
        outcomes = [evaluate_shard(tasks[0], cache)]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks), mp_context=_worker_context()) as pool:
            outcomes = list(pool.map(evaluate_shard, tasks))
    wall_seconds = time.perf_counter() - started

    by_doc = {
        doc.doc_id: doc for outcome in outcomes for doc in outcome.documents
    }
    documents = [by_doc[entry.doc_id] for entry in entries]

    arb_io = IOStatistics()
    state_io = IOStatistics()
    for doc in documents:
        arb_io.add(doc.arb_io)
        state_io.add(doc.state_io)
    statistics = EvaluationStatistics.merged(
        result.statistics for doc in documents for result in doc.results
    )
    statistics.nodes = sum(doc.n_nodes for doc in documents)
    return CollectionQueryResult(
        programs=programs,
        documents=documents,
        statistics=statistics,
        arb_io=arb_io,
        state_io=state_io,
        wall_seconds=wall_seconds,
        n_shards=len(tasks),
    )
