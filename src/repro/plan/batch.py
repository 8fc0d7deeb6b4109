"""The two-phase disk evaluation: k queries, one pair of linear scans (Sections 4-5).

This module is the one place where the automata of Algorithm 4.6 are run
over `.arb` records.  :func:`evaluate_batch_on_disk` evaluates ``k`` plans
**in lockstep**: one backward scan computes, per node, the k per-plan
bottom-up states, interns that k-tuple into one *composite* state id and
streams it (4 bytes, whatever k is) to a single temporary state file; one
forward scan then runs the k top-down automata in lockstep while reading the
state file backwards.  The `.arb` file is therefore read exactly twice --
once per phase -- no matter how many queries the batch holds, which the
separate ``arb_io`` counter proves, and the state file is the paper's "four
bytes per node" for a batch as for one query.  A single query is a batch of
one: the ``disk`` backend (:class:`~repro.plan.backends.DiskBackend`) calls
:func:`evaluate_batch_on_disk` with one plan.  The composite table -- the
lazily built automaton -- passes from phase 1 to phase 2 as a value.

Two implementations of the scan pair exist.  No caller chooses between
them: :func:`repro.plan.kernel.batch_kernel` hands out the accelerator
whenever it can run, and the result says which loop did
(:attr:`BatchQueryResult.loop <repro.plan.result.BatchQueryResult.loop>`):

* the pure-Python loops below (:func:`_run_phase1`, :func:`_run_phase2`)
  are the *reference* and the only path without numpy, for unmemoised
  plans and for exotic record sizes;
* :mod:`repro.plan.kernel` is the numpy *accelerator*: the same scans one
  page span at a time, differential-tested against the loops here for
  identical answers, statistics, stack depths and I/O counters
  (``tests/test_kernel_differential.py``).

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
import struct
import tempfile
import time
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from repro.core.automata import StateInterner
from repro.core.two_phase import BOTTOM, EvaluationStatistics
from repro.errors import EvaluationError
import repro.plan.kernel as kernel_mod
from repro.plan.memo import memo_for
from repro.plan.options import ExecutionOptions
from repro.plan.result import BatchQueryResult, QueryResult
from repro.storage import pageindex
from repro.storage.database import ArbDatabase
from repro.storage.labels import RecordShapeLabelSets
from repro.storage.paging import IOStatistics, PagedReader, PagedWriter
from repro.storage.records import record_struct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["evaluate_batch_on_disk"]

_ENTRY = struct.Struct(kernel_mod.STATE_ENTRY)


def evaluate_batch_on_disk(
    plans: Sequence["QueryPlan"],
    database: ArbDatabase,
    options: ExecutionOptions = ExecutionOptions(),
) -> BatchQueryResult:
    """Evaluate ``plans`` over ``database`` with one backward + one forward scan.

    Of ``options`` this reads ``temp_dir`` and ``collect_selected_nodes``.
    The scans skip pages through the generation's ``.idx`` sidecar when a
    valid one exists (answers are identical either way, only ``pages_read``
    shrinks) and run on the numpy kernel when it can take the batch
    (identical answers, statistics and I/O counters; ``loop`` on the result
    says which ran).
    """
    if not plans:
        raise EvaluationError("batch evaluation needs at least one query")
    plans = list(plans)
    # The same plan object may appear several times (duplicate queries in the
    # batch); reset its per-run statistics exactly once.
    unique_plans: list["QueryPlan"] = []
    seen: set[int] = set()
    for plan in plans:
        if id(plan) not in seen:
            seen.add(id(plan))
            unique_plans.append(plan)
    for plan in unique_plans:
        plan.begin_run()

    skip = _compute_skip(plans, database)
    kernel = kernel_mod.batch_kernel(plans, database, skip)

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
        if kernel is not None:
            phase1_depth, composites = kernel.run_phase1(state_path, arb_io, state_io)
        else:
            phase1_depth, composites = _run_phase1(plans, database, state_path, arb_io, state_io, skip)
        phase1_seconds = time.perf_counter() - started
        state_file_bytes = os.path.getsize(state_path)
        started = time.perf_counter()
        if kernel is not None:
            selected, counts, phase2_depth = kernel.run_phase2(
                composites, state_path, arb_io, state_io, options.collect_selected_nodes
            )
        else:
            selected, counts, phase2_depth = _run_phase2(
                plans,
                database,
                composites,
                state_path,
                arb_io,
                state_io,
                options.collect_selected_nodes,
                skip,
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
    for index, plan in enumerate(plans):
        stats = plan.evaluator.stats
        if id(plan) in plans_reported:
            # A duplicate occurrence must not share (and overwrite) the first
            # occurrence's statistics object; give it an independent copy.
            stats = replace(stats)
        plans_reported.add(id(plan))
        stats.nodes = database.n_nodes
        stats.selected = counts[index].get(plan.program.query_predicates[0], 0)
        stats.bu_states = plan.evaluator.n_bottom_up_states
        stats.memory_estimate_kb = plan.evaluator._memory_estimate_kb()
        results.append(
            QueryResult(
                program=plan.program,
                selected=selected[index],
                counts=counts[index],
                statistics=stats,
                io=total_io,
                backend="disk-batch",
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
        backend="disk-batch",
        loop="python" if kernel is None else "numpy",
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
    if record_struct(database.record_size) is None:
        return None  # exotic record sizes use the per-record fallback path
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


# ---------------------------------------------------------------------- #
# Phase 1: one backward scan, composite state entries
# ---------------------------------------------------------------------- #


def _run_phase1(
    plans: Sequence["QueryPlan"],
    database: ArbDatabase,
    state_path: str,
    arb_io: IOStatistics,
    state_io: IOStatistics,
    skip: _SkipPlan | None,
) -> tuple[int, StateInterner]:
    indices = range(len(plans))
    computes = [plan.evaluator.compute_reachable_states for plan in plans]
    # The alphabet symbol of a record: per plan, the label set of its shape
    # (each plan has its own schema, so the sets differ per plan), and for
    # the scan one memo from shape to the k sets, so a node costs one lookup.
    for_records = [
        RecordShapeLabelSets(plan.program.prop_local().schema, database.labels).for_record for plan in plans
    ]
    shape_labels: dict[tuple, list[frozenset[str]]] = {}
    # Composite states: each node's k-tuple of per-plan states, interned; id
    # 0 is what an absent child contributes (BOTTOM for every plan).
    composites = StateInterner([(BOTTOM,) * len(plans)])
    intern = composites.intern
    states = composites.values
    bottoms = states[0]
    pack = _ENTRY.pack
    n = database.n_nodes
    stack: list[int] = []
    pop = stack.pop
    push = stack.append
    max_depth = 0
    processed = 0
    if skip is None:
        segments = ((0, n, None),)
        page_filter = None
    else:
        segments = skip.segments
        page_filter = skip.allowed_pages.__contains__
        star = intern(skip.star)
    with PagedWriter(state_path, database.page_size, stats=state_io) as state_writer:
        write = state_writer.write
        scanner = database.ranged_records(backward=True, stats=arb_io, page_filter=page_filter)
        try:
            for seg_start, seg_count, region in reversed(segments):
                if region is not None:
                    # A self-contained all-neutral run: every node has state
                    # s*, only its subtree roots are visible to lower records.
                    stack.extend([star] * region.n_roots)
                    if len(stack) > max_depth:
                        max_depth = len(stack)
                    processed += seg_count
                    continue
                node_id = seg_start + seg_count
                for record in scanner.range(seg_start, seg_count):
                    node_id -= 1
                    has_first = record.has_first_child
                    has_second = record.has_second_child
                    try:
                        firsts = states[pop()] if has_first else bottoms
                        seconds = states[pop()] if has_second else bottoms
                    except IndexError:  # the records do not form one tree
                        raise EvaluationError(kernel_mod.PHASE1_INCONSISTENT) from None
                    shape = (record.label_index, has_first, has_second, node_id == 0)
                    labels = shape_labels.get(shape)
                    if labels is None:
                        labels = shape_labels[shape] = [for_record(*shape) for for_record in for_records]
                    entry = tuple([computes[i](firsts[i], seconds[i], labels[i]) for i in indices])
                    cid = intern(entry)
                    write(pack(cid))
                    push(cid)
                    if len(stack) > max_depth:
                        max_depth = len(stack)
                # node_id is now the lowest node the scanner handed out.
                processed += seg_start + seg_count - node_id
        finally:
            scanner.close()
    if processed != n or len(stack) != 1:
        raise EvaluationError(kernel_mod.PHASE1_INCONSISTENT)
    return max_depth, composites


# ---------------------------------------------------------------------- #
# Phase 2: one forward scan + backward read of the composite state file
# ---------------------------------------------------------------------- #


def _run_phase2(
    plans: Sequence["QueryPlan"],
    database: ArbDatabase,
    composites: StateInterner,
    state_path: str,
    arb_io: IOStatistics,
    state_io: IOStatistics,
    collect_selected_nodes: bool,
    skip: _SkipPlan | None,
) -> tuple[list[dict[str, list[int]]], list[dict[str, int]], int]:
    indices = range(len(plans))
    computes = [plan.evaluator.compute_true_preds for plan in plans]
    root_preds = [plan.evaluator.root_true_preds for plan in plans]
    selected: list[dict[str, list[int]]] = [
        {pred: [] for pred in plan.program.query_predicates} for plan in plans
    ]
    counts: list[dict[str, int]] = [{pred: 0 for pred in plan.program.query_predicates} for plan in plans]
    # Every (plan, query predicate) pair the select step tests per node.
    watched = [
        (i, pred, counts[i], selected[i][pred] if collect_selected_nodes else None)
        for i, plan in enumerate(plans)
        for pred in plan.program.query_predicates
    ]

    # Composite ids decode in batch (one iter_unpack per page) and expand to
    # their k-tuples through phase 1's table; the one-shot state file
    # (written once, read once, deleted) is never read through a shared
    # pool.  With skipping, phase 1 wrote entries only for non-skipped nodes,
    # and this phase consumes them only for non-skipped nodes -- the
    # alignment is exact because the skip decision is static.
    state_reader = PagedReader(
        state_path, database.page_size, stats=state_io, config=database.pager.without_pool()
    )
    tuples = composites.values
    states_iter = (tuples[cid] for (cid,) in state_reader.unpack_backward(_ENTRY))

    segments = ((0, database.n_nodes, None),) if skip is None else skip.segments
    # The attachment discipline: the next node is the ``which``-child of the
    # node holding ``parent_preds``, or -- when that is ``None`` -- the second
    # child of the innermost node still awaiting one.
    awaiting_second: list[list[frozenset[str]]] = []
    parent_preds: list[frozenset[str]] | None = None
    which = 0
    max_depth = 0
    scanner = database.ranged_records(backward=False, stats=arb_io)
    try:
        for seg_start, seg_count, region in segments:
            states = states_iter
            if region is not None:
                # Resolve where each of the run's subtree roots attaches
                # (peeking, not popping -- a fallback read must see the
                # untouched discipline) and the predicates it would hold.
                attachments = [] if parent_preds is None else [(parent_preds, which)]
                needed = region.n_roots - len(attachments)
                if needed > len(awaiting_second):  # pragma: no cover - defensive
                    raise EvaluationError("skip region inconsistent with the scan stack")
                attachments += [(awaiting_second[-1 - back], 2) for back in range(needed)]
                if all(
                    skip.answer_free([computes[i](parents[i], skip.star[i], child) for i in indices])
                    for parents, child in attachments
                ):
                    # The run selects nothing for any plan: cross it without
                    # reading.  Each complete subtree ends in a leaf, so the
                    # net effect on the discipline is exactly the pops.
                    if needed:
                        del awaiting_second[-needed:]
                    parent_preds = None
                    continue
                # Fallback: read the run after all (counted I/O), substituting
                # the known s* states; the state file holds no entries for it.
                states = repeat(skip.star)
            seg_end = seg_start + seg_count
            index = seg_start - 1
            for index, record, own_states in zip(
                range(seg_start, seg_end), scanner.range(seg_start, seg_count), states
            ):
                # attach -> transition -> select -> advance
                if index == 0:
                    preds = [root_preds[i](own_states[i]) for i in indices]
                else:
                    if parent_preds is None:
                        try:
                            parent_preds = awaiting_second.pop()
                        except IndexError:  # the records do not form one tree
                            raise EvaluationError(kernel_mod.PHASE1_INCONSISTENT) from None
                        which = 2
                    preds = []
                    for i in indices:
                        preds.append(computes[i](parent_preds[i], own_states[i], which))
                for i, pred, count, hits in watched:
                    if pred in preds[i]:
                        count[pred] += 1
                        if hits is not None:
                            hits.append(index)
                if record.has_first_child:
                    if record.has_second_child:
                        awaiting_second.append(preds)
                        if len(awaiting_second) > max_depth:
                            max_depth = len(awaiting_second)
                    parent_preds = preds
                    which = 1
                elif record.has_second_child:
                    parent_preds = preds
                    which = 2
                else:
                    parent_preds = None
            if index + 1 != seg_end:  # pragma: no cover - defensive
                raise EvaluationError("state file shorter than the database")
    finally:
        scanner.close()
    return selected, counts, max_depth
