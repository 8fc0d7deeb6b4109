"""An asyncio query service that coalesces concurrent requests into batches.

The paper's batch guarantee -- ``k`` node-selecting queries over one `.arb`
database cost **one backward + one forward scan, independent of k** -- is
exactly the amortisation a high-traffic server wants: concurrent requests
that arrive in the same short window should share one scan pair instead of
each paying their own.  :class:`QueryService` implements that window:

* :meth:`submit` admits a request (rejecting with
  :class:`~repro.errors.ServiceOverloadedError` once the queue depth limit
  is reached -- the backpressure signal), compiles it through the target's
  thread-safe :class:`~repro.plan.cache.PlanCache`, and parks it on the
  coalescing queue;
* a single batcher task collects everything that arrives within
  ``window`` seconds (or up to ``max_batch`` requests, whichever comes
  first) and evaluates the whole batch with **one** call into the plan
  dispatcher -- :meth:`Database.execute_plans` for a database (one scan
  pair on disk), the collection executor for a collection (one scan pair
  *per document* for the whole batch, dispatched across the collection's
  shard executors);
* the batch result is demultiplexed back to the callers: each gets its own
  :class:`~repro.service.request.ServiceResponse` with per-request answer,
  queueing/evaluation latency, and the shared batch's `.arb` I/O counters.

Fault isolation: a request that cannot compile fails at :meth:`submit` and
never enters a batch; a request that makes the *shared* evaluation raise is
isolated by re-running the batch's requests one by one, so only the
poisoned request surfaces the error and its batch-mates still get answers.
Compilation happens per request and evaluation errors are attached per
future, so no request can poison another or wedge the batcher.

Evaluation runs on a dedicated worker thread (the asyncio loop stays
responsive while a batch scans); the plan dispatcher serialises it per plan
against every other thread executing the same cached plans.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.collection.collection import Collection
from repro.collection.executor import run_collection_query
from repro.engine import Database
from repro.errors import ServiceClosedError, ServiceError, ServiceOverloadedError
from repro.plan.options import ExecutionOptions
from repro.service.request import ServiceResponse, ServiceStats
from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["QueryService"]

#: Default coalescing window in seconds.
DEFAULT_WINDOW = 0.005
#: Default cap on how many requests ride one scan pair.
DEFAULT_MAX_BATCH = 64
#: Default admission-control bound on queued requests.
DEFAULT_MAX_PENDING = 1024
#: Default *write* coalescing window: 0 keeps the historical behaviour
#: (every update commits on its own, with its own fsyncs).
DEFAULT_WRITE_WINDOW = 0.0
#: Default cap on how many updates ride one group commit.
DEFAULT_MAX_WRITE_BATCH = 16


@dataclass
class _Pending:
    """A request parked on the coalescing queue."""

    request_id: int
    plan: "QueryPlan"
    plan_cache_hit: bool
    future: asyncio.Future
    enqueued_at: float


@dataclass
class _PendingWrite:
    """An update parked on the write-coalescing queue."""

    update: object
    doc_id: str | None
    retain_generations: int | None
    future: asyncio.Future
    enqueued_at: float


@dataclass
class _Outcome:
    """What one request gets back from its (possibly retried) batch."""

    result: object | None = None
    error: BaseException | None = None
    arb_io: IOStatistics | None = None
    snapshot: tuple[int, int] | None = None
    batch_size: int = 1
    batch_id: int = 0
    evaluation_seconds: float = 0.0
    isolated_retry: bool = False


class QueryService:
    """Coalesce concurrent queries against one target into shared scan pairs.

    ``target`` is a :class:`~repro.engine.Database` (in memory or on disk)
    or a :class:`~repro.collection.Collection`; ``n_workers`` / ``executor``
    only apply to collections, where each coalesced batch is dispatched
    across document shards exactly like :meth:`Collection.query_many`.
    """

    def __init__(
        self,
        target: Database | Collection,
        *,
        window: float = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        write_window: float = DEFAULT_WRITE_WINDOW,
        max_write_batch: int = DEFAULT_MAX_WRITE_BATCH,
        collect_selected_nodes: bool = True,
        temp_dir: str | None = None,
        n_workers: int = 1,
        executor: str = "thread",
        pager_mode: str | None = None,
        use_index: bool = True,
        kernel: str | None = None,
    ):
        if not isinstance(target, (Database, Collection)):
            raise ServiceError(
                f"a QueryService target must be a Database or a Collection, "
                f"not {type(target).__name__}"
            )
        if window < 0:
            raise ServiceError("the coalescing window cannot be negative")
        if max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if max_pending < 1:
            raise ServiceError("max_pending must be at least 1")
        if write_window < 0:
            raise ServiceError("the write coalescing window cannot be negative")
        if max_write_batch < 1:
            raise ServiceError("max_write_batch must be at least 1")
        self.target = target
        self.window = window
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.write_window = write_window
        self.max_write_batch = max_write_batch
        self.n_workers = n_workers
        self.executor = executor
        #: How every coalesced batch runs.  ``pager_mode`` only reaches
        #: collection shards (a database target carries the PagerConfig it
        #: was opened with); the engine is always the dispatcher's default.
        self.options = ExecutionOptions(
            temp_dir=temp_dir, collect_selected_nodes=collect_selected_nodes,
            use_index=use_index, kernel=kernel, pager_mode=pager_mode,
        )
        self.plan_cache = target.plan_cache

        self._stats = ServiceStats()
        self._queue: deque[_Pending] = deque()
        self._writes: deque[_PendingWrite] = deque()
        #: Requests past admission but still compiling (counted against
        #: max_pending so a compile burst cannot overshoot the queue bound).
        self._reserved = 0
        self._running = False
        self._accepting = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._batcher: asyncio.Task | None = None
        self._write_batcher: asyncio.Task | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._compile_pool: ThreadPoolExecutor | None = None
        self._wakeup: asyncio.Event | None = None
        self._batch_full: asyncio.Event | None = None
        self._write_wakeup: asyncio.Event | None = None
        self._write_full: asyncio.Event | None = None
        self._next_request_id = 0
        self._next_batch_id = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "QueryService":
        """Start the batcher; must be called from the serving event loop."""
        if self._running:
            raise ServiceError("service is already running")
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._batch_full = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="arb-service"
        )
        # Compilation gets its own worker so a cache lookup never queues
        # behind a long batch scan in the evaluation pool.
        self._compile_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="arb-service-compile"
        )
        self._running = True
        self._accepting = True
        self._batcher = asyncio.ensure_future(self._run_batcher())
        if self.write_window > 0:
            # Writes only queue when a coalescing window is configured; with
            # the default 0 every update keeps its historical direct path.
            self._write_wakeup = asyncio.Event()
            self._write_full = asyncio.Event()
            self._write_batcher = asyncio.ensure_future(self._run_write_batcher())
        return self

    async def stop(self) -> None:
        """Stop accepting requests, drain admitted ones, and shut down.

        Two-phase: new submissions are rejected immediately, then requests
        already past admission (possibly still compiling) are allowed to
        enqueue and the batcher drains the queue before shutting down.
        """
        if not self._running:
            return
        self._accepting = False
        while self._reserved:
            await asyncio.sleep(0.001)  # in-flight admissions finish compiling
        self._running = False
        assert self._wakeup is not None and self._batcher is not None
        self._wakeup.set()
        self._batch_full.set()
        await self._batcher
        self._batcher = None
        if self._write_batcher is not None:
            self._write_wakeup.set()
            self._write_full.set()
            await self._write_batcher
            self._write_batcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._compile_pool is not None:
            self._compile_pool.shutdown(wait=True)
            self._compile_pool = None

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    @property
    def pending(self) -> int:
        """Requests currently queued for coalescing."""
        return len(self._queue)

    def stats(self) -> ServiceStats:
        """The live service-lifetime counters (see :class:`ServiceStats`)."""
        return self._stats

    # ------------------------------------------------------------------ #
    # Submitting requests
    # ------------------------------------------------------------------ #

    async def submit(
        self,
        query,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
    ) -> ServiceResponse:
        """Admit one query, ride a coalesced batch, return its answer.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the queue
        is full (backpressure), :class:`~repro.errors.ServiceClosedError`
        when the service is not running, and whatever
        :class:`~repro.errors.ReproError` the query itself earns -- a
        malformed query fails here, before it can touch a shared batch.
        """
        if not self._running or not self._accepting:
            raise ServiceClosedError("the query service is not running")
        depth = len(self._queue) + self._reserved
        if depth >= self.max_pending:
            self._stats.rejected += 1
            raise ServiceOverloadedError(
                f"query service overloaded: {depth} requests pending "
                f"(limit {self.max_pending})",
                pending=depth,
            )
        # Compile (or look up) before queueing: a parse/validation error is
        # this caller's problem alone and must never enter a shared batch.
        # The lookup runs off the event loop so a compile burst cannot stall
        # the batcher's window timer or other connections.
        self._reserved += 1
        try:
            plan, hit = await self._loop.run_in_executor(
                self._compile_pool,
                lambda: self.plan_cache.lookup(
                    query, language=language, query_predicate=query_predicate
                ),
            )
        finally:
            self._reserved -= 1
        if not self._running:
            # The service stopped while this request compiled; enqueueing now
            # would park it behind a batcher that has already drained.
            raise ServiceClosedError("the query service stopped during admission")
        self._stats.submitted += 1
        self._stats.plan_cache_hits += int(hit)
        self._stats.plan_cache_misses += int(not hit)
        self._next_request_id += 1
        pending = _Pending(
            request_id=self._next_request_id,
            plan=plan,
            plan_cache_hit=hit,
            future=self._loop.create_future(),
            enqueued_at=time.perf_counter(),
        )
        self._queue.append(pending)
        self._wakeup.set()
        if len(self._queue) >= self.max_batch:
            self._batch_full.set()
        return await pending.future

    # ------------------------------------------------------------------ #
    # Applying updates
    # ------------------------------------------------------------------ #

    async def apply(
        self,
        update,
        *,
        doc_id: str | None = None,
        retain_generations: int | None = None,
    ):
        """Apply a copy-on-write update to the served target.

        The update runs on the service's single evaluation worker -- the
        same thread that evaluates coalesced batches -- so it *serialises*
        against batch demux by construction: every batch is evaluated
        entirely before or entirely after the generation swap, which is
        what guarantees one consistent generation per batch.  Database
        targets refresh onto the new generation before the next batch;
        collection targets (``doc_id`` required) advance the manifest, so
        later coalesced batches pin the new generation per shard.

        With ``write_window=0`` (the default) the update commits on its
        own and this returns the
        :class:`~repro.storage.update.UpdateResult` (a list for a sequence
        of operations) -- the historical behaviour.  With a positive
        ``write_window`` the update parks on the write-coalescing queue:
        everything that arrives within the window (up to
        ``max_write_batch``, and for collections targeting the *same*
        document) commits as **one** group -- one WAL append, one data
        fsync, one pointer swap however many writers rode along -- and
        every rider gets the shared
        :class:`~repro.storage.update.UpdateResult` back.  A group
        that fails is retried one writer at a time, so only the poisoned
        update surfaces its error.
        """
        if not self._running:
            raise ServiceClosedError("the query service is not running")
        if isinstance(self.target, Collection):
            if doc_id is None:
                raise ServiceError("updating a collection target needs doc_id=...")
        elif doc_id is not None:
            raise ServiceError("doc_id only applies to collection targets")
        if self.write_window <= 0:
            result = await self._loop.run_in_executor(
                self._pool, self._apply_one, update, doc_id, retain_generations
            )
            self._stats.updates += 1
            return result
        pending = _PendingWrite(
            update=update,
            doc_id=doc_id,
            retain_generations=retain_generations,
            future=self._loop.create_future(),
            enqueued_at=time.perf_counter(),
        )
        self._writes.append(pending)
        self._write_wakeup.set()
        if len(self._writes) >= self.max_write_batch:
            self._write_full.set()
        return await pending.future

    async def run_on_worker(self, fn, *args):
        """Run ``fn(*args)`` on the single evaluation worker thread.

        Everything that runs here serialises against batch evaluation and
        updates by construction -- the replication install path uses it so
        a shipped generation can never land in the middle of a batch scan.
        """
        if not self._running:
            raise ServiceClosedError("the query service is not running")
        return await self._loop.run_in_executor(self._pool, fn, *args)

    async def refresh_target(self) -> tuple[int, int]:
        """Re-resolve the served database's generation pointer.

        Runs on the evaluation worker (so a batch is never split across
        generations) and returns the ``(generation, change_counter)`` the
        target is pinned to afterwards.  The replica side of generation
        shipping calls this after installing a snapshot; in-memory and
        collection targets are a no-op at ``(0, 0)``.
        """
        return await self.run_on_worker(self._refresh_target_on_worker)

    def _refresh_target_on_worker(self) -> tuple[int, int]:
        target = self.target
        if isinstance(target, Database) and target.is_on_disk:
            target.refresh()
            return target.generation, target.disk.change_counter
        return 0, 0

    def apply_threadsafe(
        self,
        update,
        *,
        doc_id: str | None = None,
        retain_generations: int | None = None,
    ) -> Future:
        """Submit an update from any thread (see :meth:`submit_threadsafe`)."""
        if not self._running or self._loop is None:
            raise ServiceClosedError("the query service is not running")
        return asyncio.run_coroutine_threadsafe(
            self.apply(update, doc_id=doc_id, retain_generations=retain_generations),
            self._loop,
        )

    def submit_threadsafe(
        self,
        query,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
    ) -> Future:
        """Submit from any thread; returns a concurrent.futures.Future.

        This is the bridge for non-async clients (thread pools hammering one
        service, the soak tests): the coroutine is scheduled onto the
        service's own loop, so coalescing still happens there.
        """
        if not self._running or self._loop is None:
            raise ServiceClosedError("the query service is not running")
        return asyncio.run_coroutine_threadsafe(
            self.submit(query, language=language, query_predicate=query_predicate),
            self._loop,
        )

    # ------------------------------------------------------------------ #
    # The batcher
    # ------------------------------------------------------------------ #

    async def _run_batcher(self) -> None:
        assert self._loop is not None
        while True:
            if not self._queue:
                if not self._running:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # The coalescing window: the first queued request holds the door
            # open for ``window`` seconds so concurrent arrivals can share
            # its scan pair; a full batch (or a stopping service) dispatches
            # immediately.
            if self.window > 0 and self._running and len(self._queue) < self.max_batch:
                self._batch_full.clear()
                try:
                    await asyncio.wait_for(self._batch_full.wait(), timeout=self.window)
                except (asyncio.TimeoutError, TimeoutError):
                    pass
            size = min(self.max_batch, len(self._queue))
            batch = [self._queue.popleft() for _ in range(size)]
            dequeued_at = time.perf_counter()
            try:
                outcomes = await self._loop.run_in_executor(
                    self._pool, self._evaluate_batch, batch
                )
                self._deliver(batch, outcomes, dequeued_at)
            except BaseException as exc:  # defensive: never wedge the loop
                for request in batch:
                    if not request.future.done():
                        self._stats.failed += 1
                        request.future.set_exception(
                            ServiceError(f"batch evaluation failed: {exc!r}")
                        )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise

    async def _run_write_batcher(self) -> None:
        """Collect updates arriving within ``write_window`` into group commits.

        Groups execute on the same single evaluation worker as query batches
        and per-window singleton updates, so writes stay serialised against
        batch demux exactly like the direct :meth:`apply` path.
        """
        assert self._loop is not None
        while True:
            if not self._writes:
                if not self._running:
                    return
                self._write_wakeup.clear()
                await self._write_wakeup.wait()
                continue
            if (self.write_window > 0 and self._running
                    and len(self._writes) < self.max_write_batch):
                self._write_full.clear()
                try:
                    await asyncio.wait_for(
                        self._write_full.wait(), timeout=self.write_window
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    pass
            # A group commit splices one base path, so only the longest
            # same-document prefix rides together; updates to another
            # document start the next group (FIFO order is preserved).
            first = self._writes[0]
            group = [self._writes.popleft()]
            while (self._writes and len(group) < self.max_write_batch
                   and self._writes[0].doc_id == first.doc_id):
                group.append(self._writes.popleft())
            try:
                outcomes = await self._loop.run_in_executor(
                    self._pool, self._apply_group, group
                )
                for pending, (result, error) in zip(group, outcomes):
                    if pending.future.done():  # pragma: no cover - cancelled
                        continue
                    if error is not None:
                        pending.future.set_exception(error)
                    else:
                        self._stats.updates += 1
                        pending.future.set_result(result)
            except BaseException as exc:  # defensive: never wedge the loop
                for pending in group:
                    if not pending.future.done():
                        pending.future.set_exception(
                            ServiceError(f"write batch failed: {exc!r}")
                        )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise

    def _apply_one(self, update, doc_id, retain_generations):
        """The per-update commit path (worker thread).

        A caller-supplied *sequence* of operations is already a declared
        group (the wire ``update`` op sends one), so it always rides the
        group-commit path -- one generation, one WAL append -- even when
        no other writer shared its window.
        """
        if isinstance(update, (list, tuple)) and len(update) > 1:
            if isinstance(self.target, Collection):
                return self.target.apply_many(
                    doc_id, update, retain_generations=retain_generations
                )
            return self.target.apply_many(
                update, retain_generations=retain_generations
            )
        if isinstance(update, (list, tuple)):
            update = update[0]
        if isinstance(self.target, Collection):
            return self.target.apply(
                doc_id, update, retain_generations=retain_generations
            )
        return self.target.apply(update, retain_generations=retain_generations)

    def _apply_group(self, group: list[_PendingWrite]) -> list[tuple]:
        """Commit one write group (worker thread); per-writer outcomes."""
        # Retention resolves per rider: ``None`` means "the default" and
        # contributes no constraint, and the riders that *did* ask for
        # pruning get the most conservative of their answers (max keeps the
        # most history).  Requiring every rider to be explicit would let a
        # single defaulted rider silently discard the whole group's
        # retention.
        explicit = [
            pending.retain_generations
            for pending in group
            if pending.retain_generations is not None
        ]
        retain = max(explicit) if explicit else None
        if len(group) == 1:
            # A lone writer in its window keeps the per-update commit path
            # (and its historical result types).
            pending = group[0]
            try:
                result = self._apply_one(
                    pending.update, pending.doc_id, pending.retain_generations
                )
            except Exception as exc:
                return [(None, exc)]
            self._record_write_batch(1)
            return [(result, None)]
        ops: list = []
        for pending in group:
            if isinstance(pending.update, (list, tuple)):
                ops.extend(pending.update)
            else:
                ops.append(pending.update)
        try:
            if isinstance(self.target, Collection):
                result = self.target.apply_many(
                    group[0].doc_id, ops, retain_generations=retain
                )
            else:
                result = self.target.apply_many(ops, retain_generations=retain)
        except Exception:
            # Fault isolation, mirroring the query batcher: the group is
            # rejected whole (nothing committed), so re-run one writer at a
            # time and let only the poisoned update surface its error.
            self._stats.isolation_retries += 1
            outcomes = []
            for pending in group:
                try:
                    outcomes.append((
                        self._apply_one(
                            pending.update, pending.doc_id,
                            pending.retain_generations,
                        ),
                        None,
                    ))
                except Exception as exc:
                    outcomes.append((None, exc))
            return outcomes
        self._record_write_batch(len(group))
        return [(result, None)] * len(group)

    def _record_write_batch(self, size: int) -> None:
        stats = self._stats
        stats.write_batches += 1
        stats.largest_write_batch = max(stats.largest_write_batch, size)
        if size > 1:
            stats.coalesced_updates += size

    def _deliver(
        self, batch: list[_Pending], outcomes: list[_Outcome], dequeued_at: float
    ) -> None:
        for index, (request, outcome) in enumerate(zip(batch, outcomes)):
            if request.future.done():  # pragma: no cover - cancelled caller
                continue
            queued = dequeued_at - request.enqueued_at
            self._stats.queued_seconds += queued
            if outcome.error is not None:
                self._stats.failed += 1
                request.future.set_exception(outcome.error)
                continue
            self._stats.completed += 1
            request.future.set_result(
                ServiceResponse(
                    request_id=request.request_id,
                    result=outcome.result,
                    batch_size=outcome.batch_size,
                    batch_index=index,
                    batch_id=outcome.batch_id,
                    plan_cache_hit=request.plan_cache_hit,
                    queued_seconds=queued,
                    evaluation_seconds=outcome.evaluation_seconds,
                    batch_arb_io=outcome.arb_io,
                    snapshot=outcome.snapshot,
                    isolated_retry=outcome.isolated_retry,
                )
            )

    # ------------------------------------------------------------------ #
    # Batch evaluation (worker thread)
    # ------------------------------------------------------------------ #

    def _evaluate_batch(self, batch: list[_Pending], *, isolated: bool = False) -> list[_Outcome]:
        started = time.perf_counter()
        try:
            results, arb_io, snapshot = self._execute([request.plan for request in batch])
        except Exception as exc:
            if isolated:
                return [
                    _Outcome(
                        error=exc,
                        batch_id=self._assign_batch_id(),
                        evaluation_seconds=time.perf_counter() - started,
                        isolated_retry=True,
                    )
                ]
            # Error isolation: something in the *shared* evaluation raised.
            # Re-run the batch one request at a time (each a batch of one) so
            # only the poisoned request surfaces its error; its batch-mates
            # pay an extra scan pair but still get clean answers.
            self._stats.isolation_retries += 1
            return [self._evaluate_batch([request], isolated=True)[0] for request in batch]
        elapsed = time.perf_counter() - started
        self._record_batch(len(batch), arb_io, elapsed)
        batch_id = self._assign_batch_id()
        return [
            _Outcome(
                result=result,
                arb_io=arb_io,
                snapshot=snapshot,
                batch_size=len(batch),
                batch_id=batch_id,
                evaluation_seconds=elapsed,
                isolated_retry=isolated,
            )
            for result in results
        ]

    def _assign_batch_id(self) -> int:
        self._next_batch_id += 1
        return self._next_batch_id

    def _record_batch(self, size: int, arb_io: IOStatistics, elapsed: float) -> None:
        stats = self._stats
        stats.batches += 1
        stats.evaluation_seconds += elapsed
        stats.largest_batch = max(stats.largest_batch, size)
        if size > 1:
            stats.coalesced_requests += size
        stats.arb_io.add(arb_io)  # in place: no dataclass churn per batch

    def _execute(self, plans: list["QueryPlan"]) -> tuple[list, IOStatistics, tuple | None]:
        """Evaluate ``plans`` together: per-plan results, batch I/O, snapshot read."""
        target = self.target
        if isinstance(target, Database):
            batch = target.execute_plans(plans, self.options)
            return batch.results, batch.arb_io, batch.snapshot
        full = run_collection_query(
            target.documents, target.root, [plan.program for plan in plans],
            cache=target.plan_cache, options=self.options,
            n_workers=self.n_workers, executor=self.executor,
        )
        # Demultiplex the corpus-wide batch into per-request single-query
        # views; they share the batch's I/O counter objects, so idempotent
        # merges (CollectionQueryResult.merged) count each scan pair once.
        # A collection versions per document, so the batch names no snapshot.
        views = [full.for_query(index) for index in range(len(plans))]
        return views, full.arb_io, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return (
            f"QueryService({self.target!r}, window={self.window}, "
            f"max_batch={self.max_batch}, {state})"
        )
