"""Result types of the plan dispatcher.

:class:`QueryResult` is the single answer type of the public API, whether
the disk scan pair or the in-memory evaluator produced it (historically it
lived in :mod:`repro.engine`, which still re-exports it).
:class:`BatchQueryResult` is the answer of
:meth:`repro.engine.Database.query_many`: the per-query results plus the I/O
counters that *prove* the batch touched the `.arb` file with one backward
and one forward scan, independent of the number of queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.two_phase import EvaluationStatistics
from repro.errors import EvaluationError
from repro.storage.paging import IOStatistics
from repro.tmnf.program import TMNFProgram

__all__ = ["QueryResult", "BatchQueryResult"]


@dataclass
class QueryResult:
    """Answer of a query over a database."""

    program: TMNFProgram
    selected: dict[str, list[int]]
    counts: dict[str, int]
    statistics: EvaluationStatistics
    io: IOStatistics | None = None
    #: Which evaluator produced this result: ``disk`` or ``memory``.
    backend: str | None = None

    def selected_nodes(self, predicate: str | None = None) -> list[int]:
        """Node ids (document order) selected for a query predicate."""
        if predicate is None:
            predicate = self.program.query_predicates[0]
        if predicate not in self.selected:
            raise EvaluationError(f"no such query predicate: {predicate!r}")
        return self.selected[predicate]

    def count(self, predicate: str | None = None) -> int:
        if predicate is None:
            predicate = self.program.query_predicates[0]
        return self.counts.get(predicate, 0)


@dataclass
class BatchQueryResult:
    """Answers of ``k`` queries evaluated together over one database.

    ``arb_io`` counts only the accesses to the `.arb` data file; on the disk
    path its ``pages_read`` is that of exactly one backward plus one forward
    scan, *independent of k* (the temporary composite state file is counted
    separately in ``state_io``).  Iterating the batch yields the per-query
    :class:`QueryResult` objects in input order.

    ``phase1_stack_depth`` / ``phase2_stack_depth`` are the deepest scan
    stacks of the two disk phases -- the quantity Proposition 5.1 bounds by
    the depth of the XML tree.  They are exact when nothing is skipped (no
    usable ``.idx``, or a batch it cannot help); a scan that skips page runs
    sees only part of the tree, and they stay 0 off the disk path.
    ``state_file_bytes`` is one 4-byte composite state id per scanned node,
    whatever the batch size.

    ``snapshot`` is the ``(generation, change_counter)`` of the on-disk
    snapshot the answers were read from (``None`` for an in-memory
    database): what a server must report as the reply's version, whatever
    the handle has been refreshed to since.
    """

    results: list[QueryResult]
    arb_io: IOStatistics = field(default_factory=IOStatistics)
    state_io: IOStatistics = field(default_factory=IOStatistics)
    statistics: EvaluationStatistics = field(default_factory=EvaluationStatistics)
    state_file_bytes: int = 0
    phase1_stack_depth: int = 0
    phase2_stack_depth: int = 0
    backend: str = "memory"
    snapshot: tuple[int, int] | None = None

    @property
    def io(self) -> IOStatistics:
        """Total I/O of the batch (`.arb` scans plus the temp state file)."""
        return self.arb_io.merge(self.state_io)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]
