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
:mod:`repro.storage.pageindex`), both scans additionally *skip* maximal
self-contained page runs whose labels are disjoint from the batch's
reachable-label set, whenever every plan maps all-neutral subtrees to a
single bottom-up state ``s*``:

* phase 1 never reads a skipped run -- it pushes the run's ``n_roots``
  composite ``s*`` entries onto the scan stack and writes **no** state
  entries for the run's nodes;
* phase 2 computes the predicates each of the run's subtree roots would
  hold and, when every one is provably answer-free (a bounded memoised
  closure under the top-down transitions), carries the attachment
  discipline across the run without reading it either; otherwise the run
  is read after all (counted I/O) with the known ``s*`` states substituted.

Skipped pages cause no physical I/O and are not counted in ``pages_read``;
seeks grow by exactly one per page-sequence jump.  Answers are identical
with and without the index -- the differential property suite
(``tests/test_pageindex_property.py``) enforces it like pooled==unpooled.

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
from repro.plan.memo import memo_for
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
        phase1_depth, composites = kernel.run_phase1(
            unique_plans, database, skip, state_path, arb_io, state_io
        )
        phase1_seconds = time.perf_counter() - started
        state_file_bytes = os.path.getsize(state_path)
        started = time.perf_counter()
        selected, counts, phase2_depth = kernel.run_phase2(
            unique_plans, database, skip, composites, state_path, arb_io, state_io,
            options.collect_selected_nodes,
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
    batch_stats = EvaluationStatistics(
        bu_seconds=phase1_seconds,
        td_seconds=phase2_seconds,
        nodes=database.n_nodes,
    )
    plans_reported: set[int] = set()
    for plan in plans:
        stats = plan.evaluator.stats
        own = position[id(plan)]
        plan_selected, plan_counts = selected[own], counts[own]
        if id(plan) in plans_reported:
            # A duplicate occurrence must not share (and overwrite) the first
            # occurrence's statistics or answers; give it independent copies.
            stats = replace(stats)
            plan_selected = {pred: list(nodes) for pred, nodes in plan_selected.items()}
            plan_counts = dict(plan_counts)
        plans_reported.add(id(plan))
        stats.nodes = database.n_nodes
        stats.selected = plan_counts.get(plan.program.query_predicates[0], 0)
        stats.bu_states = plan.evaluator.n_bottom_up_states
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
    for plan in unique_plans:
        stats = plan.evaluator.stats
        batch_stats.bu_transitions += stats.bu_transitions
        batch_stats.td_transitions += stats.td_transitions
        batch_stats.selected += stats.selected
        batch_stats.memory_estimate_kb += stats.memory_estimate_kb
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
    #: Pages a phase-1 scan may touch (gap pages); the page filter proves
    #: that skipped pages are never materialised.
    allowed_pages: frozenset[int]

    def answer_free(self, root_preds: Sequence[frozenset]) -> bool:
        """Whether no plan can select inside a neutral subtree whose root
        holds ``root_preds[i]`` for plan ``i``."""
        return all(map(_region_answer_free, self.plans, root_preds, self.star))


def _compute_skip(plans: Sequence["QueryPlan"], database: ArbDatabase) -> _SkipPlan | None:
    index = pageindex.index_for(database)
    if index is None or index.n_pages <= 1:
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
    if not regions:
        return None
    segments = tuple(pageindex.segments_of(regions, database.n_nodes))
    record_size = database.record_size
    page_size = database.page_size
    allowed: set[int] = set()
    for start, count, region in segments:
        if region is not None:
            continue
        first = (start * record_size) // page_size
        last = ((start + count) * record_size - 1) // page_size
        allowed.update(range(first, last + 1))
    return _SkipPlan(
        plans=tuple(plans),
        segments=segments,
        star=tuple(star),
        allowed_pages=frozenset(allowed),
    )


def _neutral_state(plan: "QueryPlan") -> int | None:
    """The single bottom-up state ``s*`` of all-neutral non-root subtrees.

    A node whose label is outside the plan's reachable-label set always
    produces the same label set for a given child-flag shape
    (:meth:`~repro.tree.model.NodeSchema.neutral_label_set`).  If the leaf
    state is a fixed point of all three child shapes, *every* node of a
    self-contained neutral region lands in it; otherwise the plan cannot
    skip and ``None`` is returned.  The result is memoised per plan in the
    lock-guarded :mod:`repro.plan.memo` side table (plans are shared across
    threads by the plan cache, so nothing is stashed on the plan itself).
    """
    return memo_for(plan).neutral_state(lambda: _neutral_state_uncached(plan))


def _neutral_state_uncached(plan: "QueryPlan") -> int | None:
    evaluator = plan.evaluator
    schema = evaluator.prop.schema
    compute = evaluator.compute_reachable_states

    def labels_for(has_first: bool, has_second: bool):
        return schema.neutral_label_set(is_root=False, has_first_child=has_first, has_second_child=has_second)

    leaf = compute(BOTTOM, BOTTOM, labels_for(False, False))
    if (
        compute(leaf, BOTTOM, labels_for(True, False)) != leaf
        or compute(BOTTOM, leaf, labels_for(False, True)) != leaf
        or compute(leaf, leaf, labels_for(True, True)) != leaf
    ):
        return None
    return leaf


#: Bound on the per-plan top-down closure explored before giving up on a
#: region (give-up means reading it, never wrong answers).
_ANSWER_FREE_CAP = 512


def _region_answer_free(plan: "QueryPlan", root_preds: frozenset, s_star: int) -> bool:
    """Whether a neutral subtree whose root holds ``root_preds`` can select.

    Closes ``root_preds`` under both top-down child transitions with the
    neutral state ``s*``; the subtree is answer-free iff no reachable
    predicate set contains a query predicate.  Memoised per plan in the
    lock-guarded, bounded :mod:`repro.plan.memo` side table; an oversized
    closure conservatively reports ``False``.
    """
    return memo_for(plan).answer_free(
        root_preds, lambda: _region_answer_free_uncached(plan, root_preds, s_star)
    )


def _region_answer_free_uncached(plan: "QueryPlan", root_preds: frozenset, s_star: int) -> bool:
    compute = plan.evaluator.compute_true_preds
    query_predicates = plan.program.query_predicates
    seen = {root_preds}
    frontier = [root_preds]
    while frontier:
        preds = frontier.pop()
        if any(pred in preds for pred in query_predicates):
            return False
        if len(seen) > _ANSWER_FREE_CAP:
            return False
        for which in (1, 2):
            child = compute(preds, s_star, which)
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return True
