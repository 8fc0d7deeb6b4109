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
  *per document* for the whole batch, sharded across ``n_workers``
  worker processes);
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

Updates (:meth:`QueryService.apply`) take the same road on a second lane:
admitted under the same bound, parked, taken in groups by the same loop
(:meth:`QueryService._run_lane`) and committed on the same worker thread by
one call to the target's ``apply_many`` -- a single update is a group of
one.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.collection.collection import Collection
from repro.collection.executor import run_collection_query
from repro.engine import Database
from repro.errors import ServiceClosedError, ServiceError, ServiceOverloadedError
from repro.plan.options import ExecutionOptions
from repro.service.request import ServiceResponse, ServiceStats
from repro.storage.generations import read_pointer
from repro.storage.paging import IOStatistics
from repro.storage.update import check_retain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["QueryService"]

#: Default coalescing window in seconds.
DEFAULT_WINDOW = 0.005
#: Default cap on how many requests ride one scan pair.
DEFAULT_MAX_BATCH = 64
#: Default admission-control bound on queued requests.
DEFAULT_MAX_PENDING = 1024
#: Default *write* coalescing window: 0 never waits, so every update
#: commits on its own (a group of one, with its own fsyncs).
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
    """An update (its operations, in order) parked on the write lane."""

    ops: list
    doc_id: str | None
    retain_generations: int | None
    future: asyncio.Future


@dataclass
class _Outcome:
    """What one rider gets back from its (possibly retried) batch; a write
    fills ``result`` or ``error`` only."""

    result: object | None = None
    error: BaseException | None = None
    arb_io: IOStatistics | None = None
    snapshot: tuple[int, int] | None = None
    batch_size: int = 1
    batch_id: int = 0
    evaluation_seconds: float = 0.0
    isolated_retry: bool = False


@dataclass
class _Lane:
    """One coalescing queue, and what :meth:`QueryService._run_lane` does
    with a batch taken from it."""

    #: Seconds the first queued rider holds the door open (0: never waits).
    window: float
    #: Most riders one batch takes.
    limit: int
    #: Riders share a batch while ``key`` agrees with the first one's.
    key: Callable[[object], object]
    #: ``run(batch) -> outcomes``, on the evaluation worker thread.
    run: Callable[[list], list[_Outcome]]
    #: ``deliver(batch, outcomes, dequeued_at)`` resolves the futures.
    deliver: Callable[[list, list[_Outcome], float], None]
    queue: deque = field(default_factory=deque)
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    full: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None

    def put(self, rider) -> None:
        self.queue.append(rider)
        self.wakeup.set()
        if len(self.queue) >= self.limit:
            self.full.set()

    def take(self) -> list:
        """The next batch: the longest prefix agreeing on ``key``, FIFO."""
        batch = [self.queue.popleft()]
        first = self.key(batch[0])
        while (self.queue and len(batch) < self.limit
               and self.key(self.queue[0]) == first):
            batch.append(self.queue.popleft())
        return batch


class QueryService:
    """Coalesce concurrent queries against one target into shared scan pairs.

    ``target`` is a :class:`~repro.engine.Database` (in memory or on disk)
    or a :class:`~repro.collection.Collection`; ``n_workers`` only applies
    to collections, where each coalesced batch is dispatched
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
        if isinstance(n_workers, bool) or not isinstance(n_workers, int) or n_workers < 1:
            raise ServiceError(f"n_workers must be an int of at least 1, not {n_workers!r}")
        self.target = target
        self.window = window
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.write_window = write_window
        self.max_write_batch = max_write_batch
        self.n_workers = n_workers
        #: How every coalesced batch runs; the engine is always the
        #: dispatcher's default.
        self.options = ExecutionOptions(
            temp_dir=temp_dir, collect_selected_nodes=collect_selected_nodes
        )
        self.plan_cache = target.plan_cache

        self._stats = ServiceStats()
        #: The read lane and the write lane, while the service runs.
        self._reads: _Lane | None = None
        self._writes: _Lane | None = None
        #: Requests past admission but still compiling (counted against
        #: max_pending so a compile burst cannot overshoot the queue bound).
        self._reserved = 0
        self._running = False
        self._accepting = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._compile_pool: ThreadPoolExecutor | None = None
        self._next_request_id = 0
        self._next_batch_id = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "QueryService":
        """Start the two lanes; must be called from the serving event loop."""
        if self._running:
            raise ServiceError("service is already running")
        self._loop = asyncio.get_running_loop()
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
        # Any queued requests share one scan pair.
        self._reads = _Lane(
            window=self.window, limit=self.max_batch, key=lambda request: None,
            run=self._evaluate_batch, deliver=self._deliver,
        )
        # A group commit splices one base path, so only same-document
        # updates ride together; without a window nobody waits for company
        # and every update is a group of one.
        self._writes = _Lane(
            window=self.write_window,
            limit=self.max_write_batch if self.write_window > 0 else 1,
            key=lambda write: write.doc_id, run=self._apply_group, deliver=self._deliver_writes,
        )
        for lane in (self._reads, self._writes):
            lane.task = asyncio.ensure_future(self._run_lane(lane))
        return self

    async def stop(self) -> None:
        """Stop accepting requests, drain admitted ones, and shut down.

        Two-phase: new submissions are rejected immediately, then requests
        already past admission (possibly still compiling) are allowed to
        enqueue and each lane drains its queue before shutting down.
        """
        if not self._running:
            return
        self._accepting = False
        while self._reserved:
            await asyncio.sleep(0.001)  # in-flight admissions finish compiling
        self._running = False
        for lane in (self._reads, self._writes):
            lane.wakeup.set()
            lane.full.set()
            await lane.task
        for pool in (self._pool, self._compile_pool):
            pool.shutdown(wait=True)
        self._pool = self._compile_pool = None

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    @property
    def pending(self) -> int:
        """Queries and updates currently queued for coalescing."""
        if self._reads is None:
            return 0
        return len(self._reads.queue) + len(self._writes.queue)

    def _admit(self) -> None:
        """Admission control, the same for a query and an update."""
        if not self._running or not self._accepting:
            raise ServiceClosedError("the query service is not running")
        depth = self.pending + self._reserved
        if depth >= self.max_pending:
            self._stats.rejected += 1
            raise ServiceOverloadedError(
                f"query service overloaded: {depth} requests pending "
                f"(limit {self.max_pending})",
                pending=depth,
            )

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
        self._admit()
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
        self._reads.put(pending)
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
        """Apply a copy-on-write update to the served target: **one group**.

        ``update`` is one operation or a sequence; a sequence is a declared
        group (the wire ``update`` op sends one) and always lands as one
        generation, unlike :meth:`Database.apply`, which gives every
        operation of a sequence its own.  Either way this returns one
        :class:`~repro.storage.update.UpdateResult`.

        Every update parks on the write lane.  What arrives within
        ``write_window`` seconds (up to ``max_write_batch`` updates, and for
        collections targeting the *same* document) commits as **one**
        group -- one WAL append, one data fsync, one pointer swap however
        many writers rode along -- and every rider gets the shared result
        back.  With ``write_window=0`` (the default) the lane never waits
        and every update commits on its own.  A group that fails before it
        commits is retried one writer at a time, so only the poisoned update
        surfaces its error.

        Groups run on the service's single evaluation worker -- the same
        thread that evaluates coalesced batches -- so they *serialise*
        against batch demux by construction: every batch is evaluated
        entirely before or entirely after the generation swap, which is
        what guarantees one consistent generation per batch.  Database
        targets refresh onto the new generation before the next batch;
        collection targets (``doc_id`` required) advance the manifest, so
        later coalesced batches pin the new generation per shard.

        Admission is :meth:`submit`'s: the same ``max_pending`` bound and
        the same refusals.  A ``retain_generations`` the commit would
        refuse is refused here, before the update can enter a shared group.
        """
        self._admit()
        if isinstance(self.target, Collection):
            if doc_id is None:
                raise ServiceError("updating a collection target needs doc_id=...")
        elif doc_id is not None:
            raise ServiceError("doc_id only applies to collection targets")
        check_retain(retain_generations)
        pending = _PendingWrite(
            ops=list(update) if isinstance(update, (list, tuple)) else [update],
            doc_id=doc_id,
            retain_generations=retain_generations,
            future=self._loop.create_future(),
        )
        self._writes.put(pending)
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

    def refresh_target_on_worker(self) -> tuple[int, int]:
        """Re-resolve the served database's generation pointer.

        For a job already on the evaluation worker (:meth:`run_on_worker`),
        so a batch is never split across generations; returns the
        ``(generation, change_counter)`` the target is pinned to afterwards.
        The replica side of generation shipping calls this after installing
        a snapshot; in-memory and collection targets are a no-op at
        ``(0, 0)``.
        """
        target = self.target
        if isinstance(target, Database) and target.is_on_disk:
            target.refresh()
            return target.generation, target.disk.change_counter
        return 0, 0

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
    # The lanes
    # ------------------------------------------------------------------ #

    async def _run_lane(self, lane: _Lane) -> None:
        """The one coalescing loop: wait, take a batch, run it, deliver.

        Both lanes run their batches on the same single evaluation worker,
        so reads and writes stay serialised against each other.
        """
        while True:
            if not lane.queue:
                if not self._running:
                    return
                lane.wakeup.clear()
                await lane.wakeup.wait()
                continue
            # The coalescing window: the first queued rider holds the door
            # open for ``window`` seconds so concurrent arrivals can share
            # its scan pair or its commit; a full batch (or a stopping
            # service) dispatches immediately.
            if lane.window > 0 and self._running and len(lane.queue) < lane.limit:
                lane.full.clear()
                try:
                    await asyncio.wait_for(lane.full.wait(), timeout=lane.window)
                except (asyncio.TimeoutError, TimeoutError):
                    pass
            batch = lane.take()
            dequeued_at = time.perf_counter()
            try:
                outcomes = await self._loop.run_in_executor(self._pool, lane.run, batch)
                lane.deliver(batch, outcomes, dequeued_at)
            except BaseException as exc:  # defensive: never wedge the loop
                failed = _Outcome(error=ServiceError(f"batch failed: {exc!r}"))
                lane.deliver(batch, [failed] * len(batch), dequeued_at)
                if not isinstance(exc, Exception):
                    raise

    def _committed_counter(self, doc_id: str | None) -> int | None:
        """The on-disk change counter an update to ``doc_id`` commits
        against (``None`` where there is none and the commit will say so)."""
        target = self.target
        if isinstance(target, Collection):
            if doc_id not in target.manifest:
                return None
            return read_pointer(target.manifest.get(doc_id).base_path(target.root)).counter
        if not target.is_on_disk:
            return None
        return read_pointer(target.disk.logical_base_path).counter

    def _apply_group(self, group: list[_PendingWrite]) -> list[_Outcome]:
        """Commit one write group (worker thread); per-writer outcomes.

        This is where "an update is applied at most once" lives: the only
        re-run is the isolation retry below, and it runs only if the failed
        attempt provably committed nothing.
        """
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
        ops = [op for pending in group for op in pending.ops]
        doc_id = group[0].doc_id
        # Collection.apply_many names the document first.
        document = () if doc_id is None else (doc_id,)
        before = self._committed_counter(doc_id)
        try:
            result = self.target.apply_many(*document, ops, retain_generations=retain)
        except Exception as exc:
            if len(group) == 1 or self._committed_counter(doc_id) != before:
                # Nobody to isolate from -- or the counter moved, so the
                # group is on disk and a step after the swap failed.
                return [_Outcome(error=exc)] * len(group)
            # Fault isolation, mirroring the query lane: the group was
            # rejected whole, so re-run one writer at a time and let only
            # the poisoned update surface its error.
            self._stats.isolation_retries += 1
            return [self._apply_group([pending])[0] for pending in group]
        self._record_write_batch(len(group))
        return [_Outcome(result=result)] * len(group)

    def _deliver_writes(
        self, group: list[_PendingWrite], outcomes: list[_Outcome], dequeued_at: float
    ) -> None:
        for pending, outcome in zip(group, outcomes):
            if pending.future.done():  # pragma: no cover - cancelled caller
                continue
            if outcome.error is not None:
                pending.future.set_exception(outcome.error)
            else:
                self._stats.updates += 1
                pending.future.set_result(outcome.result)

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
            n_workers=self.n_workers,
        )
        # Demultiplex the corpus-wide batch into per-request single-query
        # views; they share the batch's I/O counter objects, and the service
        # counts the batch's scans once, from ``full.arb_io``.
        # A collection versions per document, so the batch names no snapshot.
        views = [full.for_query(index) for index in range(len(plans))]
        return views, full.arb_io, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return (
            f"QueryService({self.target!r}, window={self.window}, "
            f"max_batch={self.max_batch}, {state})"
        )
