"""The two-phase disk evaluation: k queries, one pair of linear scans (Sections 4-5).

:func:`evaluate_batch_on_disk` evaluates ``k`` plans **in lockstep**: one
backward scan computes, per node, the k per-plan bottom-up states, interns
that k-tuple into one *composite* state id and streams it (4 bytes, whatever
k is) to a single temporary state file; one forward scan then runs the k
top-down automata in lockstep while reading the state file backwards.  The
`.arb` file is therefore read exactly twice -- once per phase -- no matter
how many queries the batch holds, which the separate ``arb_io`` counter
proves, and the state file is the paper's "four bytes per node" for a batch
as for one query.  This is the ``disk`` engine and the default route on
disk for every caller: a single query is a batch of one
(:meth:`Database.execute_plans <repro.engine.Database.execute_plans>`).
The scan pair itself is
:mod:`repro.plan.kernel`; this module sets it up, plans the skips and
assembles the results.

With a generation's ``.idx`` sidecar present (see
:mod:`repro.storage.pageindex`), both scans additionally *skip* page runs
whose labels are disjoint from the batch's reachable-label set.  Every
node there is neutral, and when every plan maps all-neutral subtrees to a
single bottom-up state ``s*`` in which no query predicate can hold, the
runs are crossed unread:

* a **self-contained** run is ``n_roots`` complete subtrees in ``s*``:
  phase 1 pushes ``n_roots`` composite ``s*`` entries onto its stack,
  phase 2 consumes the ``n_roots`` attachments they would have taken;
* a **chain** is ``m`` complete neutral sibling subtrees ``c_a ..
  c_(b-1)`` followed by a sibling ``c_b`` that is read.  Phase 1 replaces
  ``q``, the state of ``c_b``, on its stack by ``g^m(q)`` with ``g(x) =
  δ(s*, x, neutral(T,T))`` (computed from the orbit of ``q``, never with
  per-sibling memory), and phase 2 steps the top-down sets along the ``m``
  siblings, so ``c_b`` gets its exact attachment.  Phase 1 carries a chain
  only if, per plan and for every state ``x`` it passes, a neutral leaf and
  a neutral non-leaf in front of ``x`` are in the same state and that state
  is silent as well; otherwise it reads the chain, and so does phase 2.

A state is *silent* when no query predicate is derived for it as a first
or second child of a parent holding every IDB predicate (:func:`_silent`);
the top-down step is monotone, so that bounds every context.  Phase 1 makes
every decision, and phase 2 never reads what phase 1 skipped.

Skipped pages cause no physical I/O and are not counted in ``pages_read``;
seeks grow by exactly one per page-sequence jump.  Answers are identical
with and without the index -- the differential property suites
(``tests/test_pageindex_property.py``, ``tests/test_kernel_differential.py``)
enforce it like pooled==unpooled.

The per-plan automata stay fully independent (each plan keeps its own
memoised tables and per-run statistics); only the *scan* is shared, along
with the stack discipline of Proposition 5.1, whose depth bound is
unchanged (each stack entry is one composite id, whatever k is).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.core.two_phase import BOTTOM, EvaluationStatistics
from repro.errors import EvaluationError
from repro.plan import kernel
from repro.plan.options import ExecutionOptions
from repro.plan.result import BatchQueryResult, QueryResult
from repro.storage import pageindex
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["evaluate_batch_on_disk"]


def evaluate_batch_on_disk(
    plans: Sequence["QueryPlan"],
    database: ArbDatabase,
    options: ExecutionOptions = ExecutionOptions(),
) -> BatchQueryResult:
    """Evaluate ``plans`` over ``database`` with one backward + one forward scan.

    Of ``options`` this reads ``temp_dir`` and ``collect_selected_nodes``.
    The scans skip pages through the generation's ``.idx`` sidecar when a
    valid one exists (answers are identical either way, only ``pages_read``
    shrinks).
    """
    if not plans:
        raise EvaluationError("batch evaluation needs at least one query")
    plans = list(plans)
    # The same plan object may appear several times (duplicate queries in the
    # batch, as a coalesced service window has them): the scans run each
    # distinct plan once, which also resets its per-run statistics once.
    position: dict[int, int] = {}
    unique_plans: list["QueryPlan"] = []
    for plan in plans:
        if id(plan) not in position:
            position[id(plan)] = len(unique_plans)
            unique_plans.append(plan)
    for plan in unique_plans:
        plan.begin_run()

    skip = _compute_skip(unique_plans, database)

    arb_io = IOStatistics()
    state_io = IOStatistics()

    directory = options.temp_dir or os.path.dirname(os.path.abspath(database.arb_path)) or "."
    handle = tempfile.NamedTemporaryFile(
        prefix=os.path.basename(database.base_path) + ".batchstate.",
        dir=directory,
        delete=False,
    )
    state_path = handle.name
    handle.close()
    try:
        started = time.perf_counter()
        phase1_depth, composites, orbits = kernel.run_phase1(
            unique_plans, database, skip, state_path, arb_io, state_io
        )
        phase1_seconds = time.perf_counter() - started
        state_file_bytes = os.path.getsize(state_path)
        started = time.perf_counter()
        selected, counts, phase2_depth = kernel.run_phase2(
            unique_plans, database, skip, composites, state_path, arb_io, state_io,
            options.collect_selected_nodes, orbits,
        )
        phase2_seconds = time.perf_counter() - started
    finally:
        if os.path.exists(state_path):
            os.remove(state_path)

    total_io = arb_io.merge(state_io)
    share = 1.0 / len(unique_plans)
    for plan in unique_plans:
        # The scans are shared; attribute an equal share of the wall time to
        # each distinct plan so that the per-plan times sum to the batch time.
        plan.evaluator.stats.bu_seconds += phase1_seconds * share
        plan.evaluator.stats.td_seconds += phase2_seconds * share

    results: list[QueryResult] = []
    plans_reported: set[int] = set()
    for plan in plans:
        stats = plan.evaluator.stats
        own = position[id(plan)]
        plan_selected, plan_counts = selected[own], counts[own]
        if id(plan) in plans_reported:
            # A repeated occurrence gets its own copies of the statistics and
            # answers.  Like the memory engine's warm re-run of the plan, it
            # computed no transitions and took no time of its own.
            stats = replace(stats, bu_seconds=0.0, td_seconds=0.0, bu_transitions=0, td_transitions=0)
            plan_selected = {pred: list(nodes) for pred, nodes in plan_selected.items()}
            plan_counts = dict(plan_counts)
        plans_reported.add(id(plan))
        stats.nodes = database.n_nodes
        stats.selected = plan_counts.get(plan.program.query_predicates[0], 0)
        stats.bu_states = plan.evaluator.n_bottom_up_states
        stats.td_states = plan.evaluator.n_top_down_states
        stats.memory_estimate_kb = plan.evaluator._memory_estimate_kb()
        results.append(
            QueryResult(
                program=plan.program,
                selected=plan_selected,
                counts=plan_counts,
                statistics=stats,
                io=total_io,
                backend="disk",
            )
        )
    # The batch folds its per-query statistics as the memory engine does.
    batch_stats = EvaluationStatistics.merged(result.statistics for result in results)
    batch_stats.nodes = database.n_nodes
    batch_stats.bu_seconds = phase1_seconds
    batch_stats.td_seconds = phase2_seconds
    return BatchQueryResult(
        results=results,
        arb_io=arb_io,
        state_io=state_io,
        statistics=batch_stats,
        state_file_bytes=state_file_bytes,
        phase1_stack_depth=phase1_depth,
        phase2_stack_depth=phase2_depth,
        backend="disk",
    )


# ---------------------------------------------------------------------- #
# Skip planning (the .idx sidecar meets the batch's plans)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _SkipPlan:
    """Everything both phases need to skip: where, and with which states."""

    #: The batch's plans, in entry order (``star[i]`` belongs to ``plans[i]``).
    plans: tuple
    #: ``(start, count, region | None)`` partition of ``[0, n_nodes)``.
    segments: tuple
    #: The composite all-neutral state entry (one ``s*`` per plan).
    star: tuple[int, ...]
    #: Pages a phase-1 scan may touch (gap pages; a chain region phase 1
    #: reads adds its own); the page filter proves that skipped pages are
    #: never materialised.
    allowed_pages: frozenset[int]

    def carry(self, state: Sequence[int]) -> tuple[int, ...] | None:
        """``g(state)``: per plan, the state of a neutral node whose next
        sibling is in ``state`` and whose children, if any, are neutral --
        or ``None`` unless a leaf and a non-leaf are in the same state there
        and that state is silent (:func:`_silent`)."""
        carried = []
        for plan, star, sibling in zip(self.plans, self.star, state):
            compute = plan.evaluator.compute_reachable_states
            schema = plan.evaluator.prop.schema
            inner = compute(star, sibling, _neutral_labels(schema, True, True))
            if inner != compute(BOTTOM, sibling, _neutral_labels(schema, False, True)):
                return None
            if not _silent(plan, inner):
                return None
            carried.append(inner)
        return tuple(carried)


def _compute_skip(plans: Sequence["QueryPlan"], database: ArbDatabase) -> _SkipPlan | None:
    if database.n_nodes * database.record_size <= database.page_size:
        return None  # one page: nothing to skip, no sidecar to read
    index = pageindex.index_for(database)
    if index is None:
        return None
    star: list[int] = []
    for plan in plans:
        state = _neutral_state(plan)
        if state is None:
            return None
        star.append(state)
    schemas = [plan.evaluator.prop.schema for plan in plans]
    bits = pageindex.relevant_label_bits(schemas, database.labels)
    regions = pageindex.compute_skip_regions(index, bits)
    # Every region is made of s* subtrees: each plan must be silent in s*.
    if not regions or not all(map(_silent, plans, star)):
        return None
    segments = tuple(pageindex.segments_of(regions, database.n_nodes))
    allowed: set[int] = set()
    for start, count, region in segments:
        if region is None:
            allowed.update(pageindex.record_pages(start, count, database.record_size, database.page_size))
    return _SkipPlan(
        plans=tuple(plans),
        segments=segments,
        star=tuple(star),
        allowed_pages=frozenset(allowed),
    )


def _neutral_labels(schema, has_first: bool, has_second: bool):
    return schema.neutral_label_set(is_root=False, has_first_child=has_first, has_second_child=has_second)


def _neutral_state(plan: "QueryPlan") -> int | None:
    """The single bottom-up state ``s*`` of all-neutral non-root subtrees.

    A node whose label is outside the plan's reachable-label set always
    produces the same label set for a given child-flag shape
    (:meth:`~repro.tree.model.NodeSchema.neutral_label_set`).  If the leaf
    state is a fixed point of all three child shapes, *every* node of a
    complete all-neutral binary subtree lands in it; otherwise the plan
    cannot skip and ``None`` is returned.  The result is kept in the plan's
    memo, which the caller's hold of the plan's lock guards.
    """
    memo = plan.memo
    if "neutral" not in memo:
        schema = plan.evaluator.prop.schema
        compute = plan.evaluator.compute_reachable_states
        leaf = compute(BOTTOM, BOTTOM, _neutral_labels(schema, False, False))
        fixed = (
            compute(leaf, BOTTOM, _neutral_labels(schema, True, False)) == leaf
            and compute(BOTTOM, leaf, _neutral_labels(schema, False, True)) == leaf
            and compute(leaf, leaf, _neutral_labels(schema, True, True)) == leaf
        )
        memo["neutral"] = leaf if fixed else None
    return memo["neutral"]


def _silent(plan: "QueryPlan", state: int) -> bool:
    """Whether no non-root node in bottom-up ``state`` can hold a query
    predicate of ``plan``, whatever its context.

    The top-down step is Horn derivation, which is monotone: a child's
    predicates under any parent are among those under a parent holding
    every IDB predicate.  So it suffices that no query predicate is derived
    for ``state`` as a first or a second child of such a parent.  Memoised
    per state in the plan's memo, under the plan's lock like
    :func:`_neutral_state`.
    """
    key = ("silent", state)
    silent = plan.memo.get(key)
    if silent is None:
        evaluator = plan.evaluator
        everything = evaluator.prop.idb
        silent = plan.memo[key] = all(
            evaluator.compute_true_preds(everything, state, which).isdisjoint(plan.program.query_predicates)
            for which in (1, 2)
        )
    return silent
