"""The per-plan execution backends, and the one table that names them.

Every backend turns ``(plan, database)`` into a
:class:`~repro.plan.result.QueryResult` with the same answer semantics (the
least model of the TMNF program); they differ in access pattern and cost:

``memory``
    The two-phase evaluator (Algorithm 4.6) over the in-memory binary tree;
    materialises the tree from disk first if necessary.
``streaming``
    The one-pass lazy-DFA engine (the baseline the paper argues against),
    available only for plans with a predicate-free downward XPath spelling.
    Over an on-disk database it reads the `.arb` file **once** (SAX events
    are reconstructed from the child flags during a single forward scan) --
    half the pages of the disk scan pair, but slower: on dblp-1m, warm,
    ``//book`` takes 1250 ms against the disk pair's 49 ms and
    ``//inproceedings/title`` 951 ms against 521 ms.  Over an in-memory tree
    it streams the tree's SAX events.
``fixpoint``
    The semi-naive datalog fixpoint (reference semantics); needs the tree
    in memory and touches nodes an unbounded number of times.

The ``disk`` engine is not a backend here: it is the lockstep scan pair
:func:`~repro.plan.batch.evaluate_batch_on_disk`, which
:meth:`Database.execute_plans <repro.engine.Database.execute_plans>` runs on
the whole plan list at once (a single query is a batch of one).

Backends hold no state: all memoisation lives in the plan, so a warm plan
executes with zero recompiled automaton transitions on any backend.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.baselines.datalog import evaluate_fixpoint
from repro.errors import EvaluationError, XPathSyntaxError, XPathUnsupportedError
from repro.plan.result import QueryResult
from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Database
    from repro.plan.options import ExecutionOptions
    from repro.plan.plan import QueryPlan

__all__ = [
    "AUTO_ENGINE",
    "BACKENDS",
    "ExecutionBackend",
    "MemoryBackend",
    "StreamingBackend",
    "FixpointBackend",
]

#: Engine name of the default route: the disk scan pair on disk, else memory.
AUTO_ENGINE = "auto"


class ExecutionBackend:
    """Interface of an execution backend (stateless; safe to share)."""

    name = "abstract"

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


class StreamingBackend(ExecutionBackend):
    """One-pass lazy-DFA evaluation of predicate-free downward path queries."""

    name = "streaming"

    def execute(self, plan, database, options, *, keep_true_predicates=False):
        from repro.tree.xml_io import tree_to_sax_events

        if keep_true_predicates:
            raise EvaluationError(
                "the streaming backend cannot report per-node true-predicate "
                "sets; use engine='memory' (or 'auto') with keep_true_predicates"
            )
        engine = _streaming_engine(plan)
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


def _streaming_engine(plan: "QueryPlan"):
    """The plan's one-pass engine, compiled from its XPath spelling on first use.

    Like the automaton tables, the engine's lazily determinised DFA is kept
    on the plan, so it survives across executions and documents.  A refusal
    is not kept: the plan may gain an XPath spelling later (see
    :meth:`PlanCache.lookup <repro.plan.cache.PlanCache.lookup>`).
    """
    if plan.streaming_engine is None:
        from repro.streaming.engine import StreamingEngine, StreamPathQuery

        try:
            query = StreamPathQuery(plan.source) if plan.language == "xpath" else None
        except (XPathSyntaxError, XPathUnsupportedError):
            query = None
        if query is None:
            raise EvaluationError(
                "engine 'streaming' cannot execute this query "
                "(it is not a predicate-free downward XPath path)"
            )
        plan.streaming_engine = StreamingEngine(query)
    return plan.streaming_engine


#: The per-plan backends by engine name (``disk`` and ``auto`` are routed by
#: :meth:`Database.execute_plans <repro.engine.Database.execute_plans>`).
BACKENDS: dict[str, ExecutionBackend] = {
    backend.name: backend
    for backend in (MemoryBackend(), StreamingBackend(), FixpointBackend())
}
