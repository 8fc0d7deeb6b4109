"""Request/response types and counters of the query service.

A caller of :meth:`~repro.service.service.QueryService.submit` gets back one
:class:`ServiceResponse`: the per-query answer (a
:class:`~repro.plan.result.QueryResult` for database targets, a single-query
:class:`~repro.collection.result.CollectionQueryResult` view for collection
targets) plus everything the caller needs to *verify* the coalescing story
-- how large the shared batch was, how long the request waited for its
window, and the I/O counters of the scan pair it shared.

:class:`ServiceStats` is the service-lifetime ledger.  Batch-level counters
(``batches``, ``arb_pages_read``...) are accumulated exactly once per
evaluated batch -- never once per request -- so the service-side totals
cannot double-count a shared scan however many callers rode on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collection.result import CollectionQueryResult
    from repro.plan.result import QueryResult

__all__ = ["ServiceResponse", "ServiceStats"]


@dataclass
class ServiceResponse:
    """Answer of one service request, with its share of the batch telemetry."""

    #: Monotonically increasing id assigned at admission.
    request_id: int
    #: The per-query answer; its statistics are this request's alone.
    result: "QueryResult | CollectionQueryResult"
    #: Number of requests evaluated together in this request's batch.
    batch_size: int
    #: Position of this request within its batch (demux index).
    batch_index: int
    #: Id of the batch (shared by all requests coalesced into it).
    batch_id: int
    #: Whether the service's plan cache already held this request's plan.
    plan_cache_hit: bool
    #: Seconds spent queued (admission to the start of the batch evaluation).
    queued_seconds: float = 0.0
    #: Seconds the shared batch evaluation took (same for all riders).
    evaluation_seconds: float = 0.0
    #: `.arb` I/O of the *whole* batch: one backward + one forward scan per
    #: document however many requests coalesced (shared object across the
    #: batch's responses, so aggregate it per batch, not per response).
    batch_arb_io: IOStatistics | None = None
    #: ``(generation, change_counter)`` of the on-disk snapshot this answer
    #: was read from (``None`` for in-memory and collection targets) -- not
    #: necessarily what the target is pinned to by the time the reply is sent.
    snapshot: tuple[int, int] | None = None
    #: Whether this request was answered by a retried single-request batch
    #: after its original shared batch failed (fault isolation path).
    isolated_retry: bool = False

    @property
    def coalesced(self) -> bool:
        """Whether this request shared its scan pair with at least one other."""
        return self.batch_size > 1

    @property
    def total_seconds(self) -> float:
        """Queueing plus evaluation time (the service-side latency)."""
        return self.queued_seconds + self.evaluation_seconds

    # Convenience passthroughs so service callers can stay at one altitude.

    def count(self, predicate: str | None = None) -> int:
        return self.result.count(predicate)

    def selected_nodes(self, predicate: str | None = None):
        return self.result.selected_nodes(predicate)


@dataclass
class ServiceStats:
    """Service-lifetime counters (see :meth:`QueryService.stats`)."""

    #: Requests admitted past the queue-depth check.
    submitted: int = 0
    #: Requests answered successfully.
    completed: int = 0
    #: Requests that surfaced an error (their own, never a batch-mate's).
    failed: int = 0
    #: Queries and updates rejected by admission control (queue depth limit).
    rejected: int = 0
    #: Batches evaluated (each one scan pair per document touched).
    batches: int = 0
    #: Requests that shared their batch with at least one other request.
    coalesced_requests: int = 0
    largest_batch: int = 0
    #: Batches that failed shared evaluation and were re-run one by one.
    isolation_retries: int = 0
    #: Copy-on-write updates applied through :meth:`QueryService.apply`.
    updates: int = 0
    #: Write groups committed (each one WAL append + one generation splice,
    #: however many updates rode in it; with ``write_window=0`` every
    #: update is a group of one).
    write_batches: int = 0
    #: Updates that shared their group commit with at least one other update.
    coalesced_updates: int = 0
    largest_write_batch: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Total `.arb` I/O, accumulated once per batch (never per request).
    arb_io: IOStatistics = field(default_factory=IOStatistics)
    queued_seconds: float = 0.0
    evaluation_seconds: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return (self.completed + self.failed) / self.batches

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for reports and the ``stats`` server op."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "isolation_retries": self.isolation_retries,
            "updates": self.updates,
            "write_batches": self.write_batches,
            "coalesced_updates": self.coalesced_updates,
            "largest_write_batch": self.largest_write_batch,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "arb_pages_read": self.arb_io.pages_read,
            "arb_bytes_read": self.arb_io.bytes_read,
            "queued_seconds": round(self.queued_seconds, 6),
            "evaluation_seconds": round(self.evaluation_seconds, 6),
        }
