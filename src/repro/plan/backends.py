"""Pluggable execution backends for query plans.

Every backend turns ``(plan, database)`` into a
:class:`~repro.plan.result.QueryResult` with the same answer semantics (the
least model of the TMNF program); they differ in access pattern and cost:

``memory``
    The two-phase evaluator (Algorithm 4.6) over the in-memory binary tree;
    materialises the tree from disk first if necessary.
``disk``
    The two linear scans of Section 5 over the `.arb` file -- a batch of one
    through :func:`~repro.plan.batch.evaluate_batch_on_disk`; never
    materialises the tree, and so cannot report per-node predicate sets.
``streaming``
    The one-pass lazy-DFA engine, available only for plans whose source was
    a predicate-free downward XPath path.  Over an on-disk database this
    reads the `.arb` file **once** (SAX events are reconstructed from the
    child flags during a single forward scan) -- half the I/O of the disk
    backend -- and over an in-memory tree it streams the tree's SAX events.
``fixpoint``
    The semi-naive datalog fixpoint (reference semantics); needs the tree
    in memory and touches nodes an unbounded number of times.

Backends hold no state: all memoisation lives in the plan, so a warm plan
executes with zero recompiled automaton transitions on any backend.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.baselines.datalog import evaluate_fixpoint
from repro.errors import EvaluationError
from repro.plan.batch import evaluate_batch_on_disk
from repro.plan.result import QueryResult
from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Database
    from repro.plan.options import ExecutionOptions
    from repro.plan.plan import QueryPlan

__all__ = [
    "ExecutionBackend",
    "MemoryBackend",
    "DiskBackend",
    "StreamingBackend",
    "FixpointBackend",
]


class ExecutionBackend:
    """Interface of an execution backend (stateless; safe to share)."""

    name = "abstract"

    def can_execute(self, plan: "QueryPlan", database: "Database") -> bool:
        raise NotImplementedError

    def execute(
        self,
        plan: "QueryPlan",
        database: "Database",
        options: "ExecutionOptions",
        *,
        keep_true_predicates: bool = False,
    ) -> QueryResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class MemoryBackend(ExecutionBackend):
    """Two-phase evaluation over the in-memory binary tree."""

    name = "memory"

    def can_execute(self, plan: "QueryPlan", database: "Database") -> bool:
        return True  # a disk database can always be materialised

    def execute(self, plan, database, options, *, keep_true_predicates=False):
        plan.begin_run()
        evaluation = plan.evaluator.evaluate(
            database.binary_tree(), keep_true_predicates=keep_true_predicates
        )
        counts = {pred: len(nodes) for pred, nodes in evaluation.selected.items()}
        return QueryResult(
            program=plan.program,
            selected=evaluation.selected,
            counts=counts,
            statistics=evaluation.statistics,
            io=IOStatistics(),
            true_predicates=evaluation.true_predicates,
            backend=self.name,
        )


class DiskBackend(ExecutionBackend):
    """Two linear scans of the `.arb` file (Section 5); tree never in memory."""

    name = "disk"

    def can_execute(self, plan: "QueryPlan", database: "Database") -> bool:
        return database.is_on_disk

    def execute(self, plan, database, options, *, keep_true_predicates=False):
        if database.disk is None:
            raise EvaluationError("cannot force disk evaluation: database is in memory")
        if keep_true_predicates:
            raise EvaluationError(
                "the disk backend cannot report per-node true-predicate sets; "
                "use engine='memory' (or 'auto') with keep_true_predicates"
            )
        # A single query is a batch of one.
        result = evaluate_batch_on_disk([plan], database.disk, options)[0]
        result.backend = self.name
        return result


class StreamingBackend(ExecutionBackend):
    """One-pass lazy-DFA evaluation of predicate-free downward path queries."""

    name = "streaming"

    def can_execute(self, plan: "QueryPlan", database: "Database") -> bool:
        return plan.streaming_query is not None

    def execute(self, plan, database, options, *, keep_true_predicates=False):
        from repro.tree.xml_io import tree_to_sax_events

        engine = plan.streaming_engine
        if engine is None:
            raise EvaluationError(
                "query cannot run on the streaming backend "
                "(it is not a predicate-free downward XPath path)"
            )
        if keep_true_predicates:
            raise EvaluationError(
                "the streaming backend cannot report per-node true-predicate "
                "sets; use engine='memory' (or 'auto') with keep_true_predicates"
            )
        stats = plan.begin_run()
        io = IOStatistics()
        transitions_before = engine.dfa_transitions_computed
        started = time.perf_counter()
        if database.disk is not None:
            events = database.disk.sax_events(stats=io)
        else:
            events = tree_to_sax_events(database.unranked_tree())
        selected = list(engine.select(events))
        elapsed = time.perf_counter() - started

        predicate = plan.program.query_predicates[0]
        stats.nodes = database.n_nodes
        stats.selected = len(selected)
        # A single pass: report its time and the lazy DFA transitions computed
        # by *this* run as phase 1 (the DFA persists on the plan, so a warm
        # plan recomputes none).
        stats.bu_seconds = elapsed
        stats.bu_transitions = engine.dfa_transitions_computed - transitions_before
        return QueryResult(
            program=plan.program,
            selected={predicate: selected},
            counts={predicate: len(selected)},
            statistics=stats,
            io=io,
            backend=self.name,
        )


class FixpointBackend(ExecutionBackend):
    """Naive datalog fixpoint over the in-memory tree (reference semantics)."""

    name = "fixpoint"

    def can_execute(self, plan: "QueryPlan", database: "Database") -> bool:
        return True

    def execute(self, plan, database, options, *, keep_true_predicates=False):
        stats = plan.begin_run()
        started = time.perf_counter()
        result = evaluate_fixpoint(plan.program, database.binary_tree())
        elapsed = time.perf_counter() - started
        counts = {pred: len(nodes) for pred, nodes in result.selected.items()}
        stats.nodes = database.n_nodes
        stats.selected = counts.get(plan.program.query_predicates[0], 0)
        stats.bu_seconds = elapsed
        true_predicates = None
        if keep_true_predicates:
            true_predicates = [frozenset(preds) for preds in result.true_predicates]
        return QueryResult(
            program=plan.program,
            selected=result.selected,
            counts=counts,
            statistics=stats,
            io=IOStatistics(),
            true_predicates=true_predicates,
            backend=self.name,
        )
