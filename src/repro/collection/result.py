"""Result types of collection-wide query evaluation.

A collection query produces one :class:`DocumentQueryResult` per document --
the per-query :class:`~repro.plan.result.QueryResult` answers plus the
document's own `.arb` / state-file I/O counters, kept separate so tests can
check the paper's invariant *per shard*: the data file of every document is
scanned a constant number of times however many queries the batch holds.
:class:`CollectionQueryResult` holds them in manifest order together with
the aggregates (summed statistics, merged I/O, wall-clock time of the
parallel run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.two_phase import EvaluationStatistics
from repro.errors import EvaluationError
from repro.plan.result import QueryResult
from repro.storage.paging import IOStatistics
from repro.tmnf.program import TMNFProgram

__all__ = ["DocumentQueryResult", "CollectionQueryResult"]


@dataclass
class DocumentQueryResult:
    """Answers of the query batch over one document of a collection."""

    doc_id: str
    #: Index of the shard (worker) that evaluated this document.
    shard_index: int
    #: One :class:`QueryResult` per query, in input order.
    results: list[QueryResult]
    #: Accesses to this document's `.arb` data file only.
    arb_io: IOStatistics = field(default_factory=IOStatistics)
    #: Accesses to this document's temporary composite state file.
    state_io: IOStatistics = field(default_factory=IOStatistics)
    state_file_bytes: int = 0
    backend: str = ""
    n_nodes: int = 0

    def result(self, query_index: int = 0) -> QueryResult:
        return self.results[query_index]

    def selected_nodes(self, predicate: str | None = None, *, query_index: int = 0) -> list[int]:
        return self.results[query_index].selected_nodes(predicate)

    def count(self, predicate: str | None = None, *, query_index: int = 0) -> int:
        return self.results[query_index].count(predicate)


@dataclass
class CollectionQueryResult:
    """Answers of ``k`` queries evaluated over every document of a collection.

    ``documents`` is in manifest (collection) order, independent of how the
    documents were sharded across workers.  ``statistics`` sums the per-query
    evaluation statistics over all documents -- including the plan-cache
    hit/miss counters, which show how many of the ``k * n_documents``
    per-document evaluations were served by a plan shared through the
    collection's keyed :class:`~repro.plan.cache.PlanCache`.  ``arb_io`` and
    ``state_io`` merge the per-document counters; ``wall_seconds`` is the
    end-to-end time of the (possibly parallel) run, so
    ``statistics.total_seconds / wall_seconds`` estimates the speed-up.
    """

    programs: list[TMNFProgram]
    documents: list[DocumentQueryResult]
    statistics: EvaluationStatistics = field(default_factory=EvaluationStatistics)
    arb_io: IOStatistics = field(default_factory=IOStatistics)
    state_io: IOStatistics = field(default_factory=IOStatistics)
    wall_seconds: float = 0.0
    #: Number of shards, one per worker the call used.
    n_shards: int = 1

    @property
    def io(self) -> IOStatistics:
        """Total I/O over all documents (`.arb` scans plus temp state files)."""
        return self.arb_io.merge(self.state_io)

    def for_query(self, query_index: int) -> "CollectionQueryResult":
        """A single-query view of this batch result.

        The view *shares* the underlying per-document objects -- each
        document's per-query :class:`~repro.plan.result.QueryResult` (and its
        statistics) and, crucially, the document's ``arb_io`` /``state_io``
        counters, because the scan pair that produced them served the whole
        batch, not this query alone.  :meth:`merged` relies on that sharing
        to count every scan exactly once when the views of one batch are
        aggregated back together (the query service demultiplexes a coalesced
        batch into such views, one per caller).
        """
        if not 0 <= query_index < len(self.programs):
            raise EvaluationError(f"no query at index {query_index}")
        documents = [
            DocumentQueryResult(
                doc_id=doc.doc_id,
                shard_index=doc.shard_index,
                results=[doc.results[query_index]],
                arb_io=doc.arb_io,
                state_io=doc.state_io,
                state_file_bytes=doc.state_file_bytes,
                backend=doc.backend,
                n_nodes=doc.n_nodes,
            )
            for doc in self.documents
        ]
        statistics = EvaluationStatistics.merged(
            doc.results[0].statistics for doc in documents
        )
        statistics.nodes = sum(doc.n_nodes for doc in documents)
        return CollectionQueryResult(
            programs=[self.programs[query_index]],
            documents=documents,
            statistics=statistics,
            arb_io=self.arb_io,
            state_io=self.state_io,
            wall_seconds=self.wall_seconds,
            n_shards=self.n_shards,
        )

    @classmethod
    def merged(cls, results) -> "CollectionQueryResult":
        """Aggregate many results into one, idempotently and order-independently.

        De-duplication is by object identity at every level: feeding the same
        result twice, or feeding the per-query :meth:`for_query` views of one
        batch (which share their documents' I/O counter objects), counts each
        underlying scan pair and evaluation run exactly once.  All counters
        are combined commutatively, so the input order never changes the
        totals; ``wall_seconds`` takes the maximum (merged runs may overlap
        in time), and ``nodes`` is recomputed from the de-duplicated scans
        rather than summed from per-view statistics.
        """
        results = list(results)
        distinct: list[CollectionQueryResult] = []
        seen_results: set[int] = set()
        for result in results:
            if id(result) not in seen_results:
                seen_results.add(id(result))
                distinct.append(result)

        programs: list[TMNFProgram] = []
        seen_programs: set[int] = set()
        documents: list[DocumentQueryResult] = []
        seen_documents: set[int] = set()
        for result in distinct:
            for program in result.programs:
                if id(program) not in seen_programs:
                    seen_programs.add(id(program))
                    programs.append(program)
            for doc in result.documents:
                if id(doc) not in seen_documents:
                    seen_documents.add(id(doc))
                    documents.append(doc)

        arb_io = IOStatistics()
        state_io = IOStatistics()
        nodes = 0
        seen_io: set[int] = set()
        for doc in documents:
            # Views of one batch wrap fresh DocumentQueryResult objects
            # around *shared* counters; the counter object's identity marks
            # the physical scan pair, so it (and the nodes it visited) is
            # counted once however many views carry it.
            if id(doc.arb_io) in seen_io:
                continue
            seen_io.add(id(doc.arb_io))
            arb_io = arb_io.merge(doc.arb_io)
            state_io = state_io.merge(doc.state_io)
            nodes += doc.n_nodes
        statistics = EvaluationStatistics.merged(
            result.statistics for doc in documents for result in doc.results
        )
        statistics.nodes = nodes
        return cls(
            programs=programs,
            documents=documents,
            statistics=statistics,
            arb_io=arb_io,
            state_io=state_io,
            wall_seconds=max((result.wall_seconds for result in distinct), default=0.0),
            n_shards=max((result.n_shards for result in distinct), default=1),
        )

    def __iter__(self) -> Iterator[DocumentQueryResult]:
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def document(self, doc_id: str) -> DocumentQueryResult:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise EvaluationError(f"no such document in result: {doc_id!r}")

    def _resolve_predicate(self, predicate: str | None, query_index: int) -> str:
        if predicate is not None:
            return predicate
        return self.programs[query_index].query_predicates[0]

    def selected_nodes(
        self, predicate: str | None = None, *, query_index: int = 0
    ) -> dict[str, list[int]]:
        """Per-document selected node ids for one query, keyed by document id."""
        predicate = self._resolve_predicate(predicate, query_index)
        return {
            doc.doc_id: doc.results[query_index].selected_nodes(predicate)
            for doc in self.documents
        }

    def count(self, predicate: str | None = None, *, query_index: int = 0) -> int:
        """Total number of selected nodes for one query, over all documents."""
        predicate = self._resolve_predicate(predicate, query_index)
        return sum(doc.results[query_index].count(predicate) for doc in self.documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CollectionQueryResult({len(self.programs)} queries x "
            f"{len(self.documents)} documents, {self.n_shards} shards, "
            f"{self.wall_seconds:.4f}s)"
        )
