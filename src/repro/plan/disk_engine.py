"""Single-query facade over the two-phase disk evaluation (Sections 4-5).

Algorithm 4.6 runs against an `.arb` database in two linear scans:

Phase 1 (bottom-up)
    One **backward linear scan** of the `.arb` file.  For every node the
    deterministic bottom-up automaton state (a residual program) is computed
    lazily from the children's states and the node's label set; the *state
    id* is streamed to a temporary state file, four bytes per node, in visit
    order (reverse pre-order).

Phase 2 (top-down)
    One **forward linear scan** of the `.arb` file, reading the temporary
    state file **backwards** (which yields the phase-1 states in pre-order,
    i.e. in lockstep with the forward scan).  For every node the set of true
    IDB predicates is computed from the parent's set and the node's phase-1
    state; nodes whose set contains a query predicate are reported.

Main memory holds only the two automata (hash tables of states and
transitions, computed lazily) and a stack bounded by the depth of the XML
tree -- never the tree itself.

The scans themselves live in :mod:`repro.plan.batch` (the reference loop)
and :mod:`repro.plan.kernel` (its numpy accelerator); a single query is a
batch of one.  :class:`DiskQueryEngine` owns one private
:class:`~repro.plan.plan.QueryPlan`, runs it through
:func:`~repro.plan.batch.evaluate_batch_on_disk` without the page-skipping
index, and reports the result as a :class:`DiskEvaluationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.two_phase import EvaluationStatistics
from repro.errors import EvaluationError
from repro.plan.batch import evaluate_batch_on_disk
from repro.plan.options import ExecutionOptions
from repro.plan.plan import QueryPlan
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tmnf.program import TMNFProgram

__all__ = ["DiskQueryEngine", "DiskEvaluationResult"]


@dataclass
class DiskEvaluationResult:
    """Query answers plus the statistics needed by the benchmark harness."""

    selected: dict[str, list[int]]
    statistics: EvaluationStatistics
    io: IOStatistics
    phase1_stack_depth: int = 0
    phase2_stack_depth: int = 0
    state_file_bytes: int = 0
    selected_counts: dict[str, int] = field(default_factory=dict)

    def selected_nodes(self, predicate: str | None = None) -> list[int]:
        if predicate is None:
            predicate = next(iter(self.selected))
        if predicate not in self.selected:
            raise EvaluationError(f"no such query predicate: {predicate!r}")
        return self.selected[predicate]


class DiskQueryEngine:
    """Evaluate a TMNF program over an `.arb` database in two linear scans.

    The engine's :attr:`core` evaluator keeps its lazily-memoised automaton
    tables between :meth:`evaluate` calls, on the same or on different
    databases; every call reports fresh per-run statistics.
    """

    def __init__(
        self,
        program: "TMNFProgram",
        *,
        memoize: bool = True,
        collect_selected_nodes: bool = True,
        kernel: str | None = None,
    ):
        self.program = program
        # A single query through this facade never consults the `.idx` sidecar.
        self._options = ExecutionOptions(
            collect_selected_nodes=collect_selected_nodes, use_index=False, kernel=kernel
        )
        self._plan = QueryPlan(program, memoize=memoize)
        self.core = self._plan.evaluator

    def evaluate(self, database: ArbDatabase, *, temp_dir: str | None = None) -> DiskEvaluationResult:
        """Run both phases against ``database``.

        ``temp_dir`` controls where the temporary state file is created
        (default: alongside the database).
        """
        batch = evaluate_batch_on_disk([self._plan], database, replace(self._options, temp_dir=temp_dir))
        result = batch[0]
        return DiskEvaluationResult(
            selected=result.selected,
            statistics=result.statistics,
            io=batch.io,
            phase1_stack_depth=batch.phase1_stack_depth,
            phase2_stack_depth=batch.phase2_stack_depth,
            state_file_bytes=batch.state_file_bytes,
            selected_counts=result.counts,
        )
