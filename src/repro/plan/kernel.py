"""Streaming lockstep automaton kernel (optional numpy accelerator).

:mod:`repro.plan.batch` holds the reference implementation of the two-phase
disk evaluation: pure-Python loops that, per node and per plan, pay a
label-set lookup, a transition call and list building in the interpreter.
This module is its accelerator.  :func:`batch_kernel` hands
:func:`~repro.plan.batch.evaluate_batch_on_disk` a :class:`_LockstepKernel`
whose two phases run the same scans one page span at a time while keeping
the *evaluation semantics*, the *I/O accounting* and the *memory bound* of
the reference identical -- for a batch of k plans and for the batch of one
that a single disk query is:

* the `.arb` file is read through the same
  :class:`~repro.storage.paging.RangedScan` page walks as the reference
  (same pages, same seeks, same bytes), one span of whole records at a
  time via :meth:`~repro.storage.paging.RangedScan.spans_range` and
  ``numpy.frombuffer``; a span's symbols, child-flag codes and running
  stack heights (the consistency check and the depth) are arraywise;
* the k per-plan automata run in lockstep over *composite* states: the
  k-tuple of per-plan state ids is interned into one integer, so the
  per-node transition for **all k plans together** is a single
  packed-integer dict lookup on a stack as deep as the tree.  Only the
  first occurrence of a distinct (symbol, left, right) triple consults the
  per-plan evaluators -- which therefore see exactly the same lazily-queried
  transition set as the reference, preserving every
  :class:`EvaluationStatistics` counter, cold and warm;
* the state file has the reference's format (:data:`STATE_ENTRY`): one
  4-byte composite id per node whatever k is.  Phase 2 consumes it
  backwards, re-chunked to the `.arb` spans, with the awaiting-second stack
  (again as deep as the tree) and per-(plan, predicate) selection tables
  over the interned predicate composites;
* skip regions from the ``.idx`` sidecar compose exactly as in the
  reference: phase 1 pushes the composite ``s*`` per region root without
  reading, and phase 2 replays the same answer-free decisions and fallback
  reads.

What stays in memory is the two stacks, one page span and the composite
tables -- the lazily built automaton the paper shows stays small -- so
nothing grows with the document.  The one bound is on distinct record
symbols and composite states (:data:`_PACK_BASE` each), never on nodes; a
batch that outgrows it raises :data:`COMPOSITE_OVERFLOW` instead of risking
a colliding key.

Nothing selects the kernel: :func:`batch_kernel` hands it out whenever it
can run -- numpy imports, every plan memoises (the laziness-ablation mode
recomputes transitions per *node*, which a composite table cannot
reproduce) and the record size has a numpy dtype -- and otherwise returns
``None``, which sends the batch through the reference loop.  The batch
result names the loop that ran
(:attr:`BatchQueryResult.loop <repro.plan.result.BatchQueryResult.loop>`).
Nothing is accepted on faith: the differential suite
``tests/test_kernel_differential.py`` holds the kernel to the reference
loop's answers, statistics, stack depths and I/O counters, cold and warm,
by running the same batch once with numpy and once with numpy made
unavailable to this module (the situation of the no-numpy CI leg).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.automata import StateInterner
from repro.core.two_phase import BOTTOM
from repro.errors import EvaluationError
from repro.storage.labels import RecordShapeLabelSets
from repro.storage.paging import IOStatistics, PagedReader, PagedWriter
from repro.storage.records import flag_masks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan
    from repro.storage.database import ArbDatabase

__all__ = ["numpy_available", "batch_kernel"]

#: Packing base of the transition keys.  A phase-1 key is
#: ``(symbol * base + left) * base + right`` and a phase-2 key
#: ``(parent * 4 + which) * base + child``, so symbol and composite ids below
#: the base keep every key unique (and phase-1 keys inside an int64).
_PACK_BASE = 1 << 21

#: numpy dtypes matching the big-endian record sizes of ``record_struct``.
_SPAN_DTYPES = {1: ">u1", 2: ">u2", 4: ">u4", 8: ">u8"}

#: The state-file entry of both loops: one composite state id per node, a
#: big-endian uint32 (the same string is a ``struct`` and a numpy format).
STATE_ENTRY = ">I"

#: The one message for scanned records that do not form one tree (raised by
#: both loops, here and in :mod:`repro.plan.batch`).
PHASE1_INCONSISTENT = "phase 1 did not consume the database consistently"

#: Raised when a batch has :data:`_PACK_BASE` distinct record symbols or
#: composite states -- the kernel's only bound.
COMPOSITE_OVERFLOW = "the batch's composite automaton outgrew the kernel's packed transition keys"

_NUMPY: object = False  # unresolved sentinel; resolved to a module or None


def _numpy_module():
    global _NUMPY
    if _NUMPY is False:
        try:
            import numpy

            _NUMPY = numpy
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
            _NUMPY = None
    return _NUMPY


def numpy_available() -> bool:
    """Whether the numpy kernel can run in this interpreter."""
    return _numpy_module() is not None


def batch_kernel(plans: Sequence["QueryPlan"], database: "ArbDatabase", skip):
    """A :class:`_LockstepKernel` for ``plans`` over ``database``, or ``None``.

    ``None`` means "use the pure-Python loop": numpy is unavailable, a plan
    runs unmemoised, or the record size has no numpy dtype.  ``skip`` is the
    batch's skip plan (``None`` to scan everything) exactly as computed by
    :func:`repro.plan.batch._compute_skip`.
    """
    np = _numpy_module()
    if np is None or database.record_size not in _SPAN_DTYPES:
        return None
    if not all(plan.evaluator.memoize for plan in plans):
        return None
    return _LockstepKernel(np, list(plans), database, skip)


class _LockstepKernel:
    """One batch of the streaming lockstep evaluation.

    Phase 1 returns the composite table that phase 2 takes back; nothing
    else passes between them.  Create one per ``evaluate_batch_on_disk`` call.
    """

    def __init__(self, np, plans, database, skip):
        self._np = np
        self._plans = plans
        self._database = database
        self._skip = skip
        self._shift = 8 * database.record_size - 2  # value >> shift: the child-flag code

    def _segments(self):
        if self._skip is None:
            return ((0, self._database.n_nodes, None),), None
        return self._skip.segments, self._skip.allowed_pages.__contains__

    def _decode(self, view, start, n, dtype=None):
        """A span's records as an array (a page-straddling one arrives assembled)."""
        dtype = dtype or _SPAN_DTYPES[self._database.record_size]
        if view is None:
            return self._np.frombuffer(start, dtype, 1)
        return self._np.frombuffer(view, dtype, n, start)

    # -------------------------------------------------------------- #
    # Phase 1: backward scan, one composite id per node
    # -------------------------------------------------------------- #

    def run_phase1(
        self, state_path: str, arb_io: IOStatistics, state_io: IOStatistics
    ) -> tuple[int, StateInterner]:
        """Write the state file; return ``(deepest stack, composite table)``."""
        np = self._np
        db = self._database
        plans = self._plans
        indices = range(len(plans))
        segments, page_filter = self._segments()
        first_bit, second_bit = flag_masks(db.record_size)
        label_sets = [RecordShapeLabelSets(plan.program.prop_local().schema, db.labels) for plan in plans]
        computes = [plan.evaluator.compute_reachable_states for plan in plans]
        base = _PACK_BASE
        base2 = base * base
        composites = StateInterner([(BOTTOM,) * len(plans)])  # id 0: the absent child
        states = composites.values
        intern = composites.intern
        star = intern(self._skip.star) if self._skip is not None else 0
        if star >= base:
            raise EvaluationError(COMPOSITE_OVERFLOW)
        symbols: dict[int, int] = {}  # record value (~value for the root) -> symbol * base2
        symbol_labels: list[tuple] = []  # symbol -> the k label sets
        transitions: dict[int, int] = {}  # packed (symbol, left, right) -> composite id

        def symbol(value: int, is_root: bool) -> int:
            key = ~value if is_root else value
            packed = symbols.get(key)
            if packed is None:
                if len(symbol_labels) >= base:
                    raise EvaluationError(COMPOSITE_OVERFLOW)
                shape = (value & (second_bit - 1), bool(value & first_bit), bool(value & second_bit), is_root)
                packed = symbols[key] = len(symbol_labels) * base2
                symbol_labels.append(tuple(labels.for_record(*shape) for labels in label_sets))
            return packed

        def resolve(key: int) -> int:
            sym, children = divmod(key, base2)
            left, right = divmod(children, base)
            lt, rt, labels = states[left], states[right], symbol_labels[sym]
            cid = intern(tuple([computes[i](lt[i], rt[i], labels[i]) for i in indices]))
            if cid >= base:
                raise EvaluationError(COMPOSITE_OVERFLOW)
            transitions[key] = cid
            return cid

        stack: list[int] = []
        pop = stack.pop
        push = stack.append
        get = transitions.get
        depth = 0
        scan = db.ranged_spans(backward=True, stats=arb_io, page_filter=page_filter)
        try:
            with PagedWriter(state_path, db.page_size, stats=state_io) as writer:
                for start, count, region in reversed(segments):
                    if region is not None:
                        # A self-contained all-neutral run: only its subtree
                        # roots are visible to lower records, each in s*.
                        stack.extend([star] * region.n_roots)
                        depth = max(depth, len(stack))
                        continue
                    low = start + count
                    for view, offset, n in scan.spans_range(db.record_size, start, count):
                        low -= n  # the span holds nodes low .. low+n-1, consumed from the top
                        # Per distinct record value: its packed symbol and child-flag code.
                        values = self._decode(view, offset, n)
                        unique, inverse = np.unique(values, return_inverse=True)
                        uniques = unique.tolist()
                        keys = [symbol(v, False) for v in uniques]
                        if low == 0:  # the root's symbol is its own
                            inverse[0] = len(uniques)
                            uniques.append(int(values[0]))
                            keys.append(symbol(uniques[-1], True))
                        codes = [v >> self._shift for v in uniques]
                        order = inverse[::-1]  # the span is consumed from its top
                        pops = np.array([(code >> 1) + (code & 1) for code in codes])[order]
                        heights = len(stack) + np.cumsum(1 - pops)
                        if heights.min() < 1:  # a pop from the empty stack
                            raise EvaluationError(PHASE1_INCONSISTENT)
                        depth = max(depth, int(heights.max()))
                        out: list[int] = []
                        append = out.append
                        for u in order.tolist():
                            key = keys[u]
                            code = codes[u]
                            if code == 1:
                                key += pop()
                            elif code == 3:
                                key += pop() * base + pop()  # first child, then second
                            elif code:
                                key += pop() * base
                            cid = get(key)
                            if cid is None:
                                cid = resolve(key)
                            push(cid)
                            append(cid)
                        writer.write(np.array(out, STATE_ENTRY).tobytes())
            if len(stack) != 1:
                raise EvaluationError(PHASE1_INCONSISTENT)
        finally:
            scan.close()
        return depth, composites

    # -------------------------------------------------------------- #
    # Phase 2: forward scan + backward read of the state file
    # -------------------------------------------------------------- #

    def run_phase2(
        self,
        composites: StateInterner,
        state_path: str,
        arb_io: IOStatistics,
        state_io: IOStatistics,
        collect_selected_nodes: bool,
    ) -> tuple[list[dict[str, list[int]]], list[dict[str, int]], int]:
        """Select; return ``(selected, counts, deepest awaiting stack)``."""
        np = self._np
        db = self._database
        plans = self._plans
        skip = self._skip
        indices = range(len(plans))
        base = _PACK_BASE
        states = composites.values
        star = composites.get(skip.star) if skip is not None else None
        computes = [plan.evaluator.compute_true_preds for plan in plans]
        watched = [(i, pred) for i, plan in enumerate(plans) for pred in plan.program.query_predicates]
        selected = [{pred: [] for pred in plan.program.query_predicates} for plan in plans]
        counts = [{pred: 0 for pred in plan.program.query_predicates} for plan in plans]
        preds = StateInterner()  # predicate composites: k-tuples of true-predicate sets
        rows: list[tuple[bool, ...]] = []  # predicate composite -> is each watched pair in it
        transitions: dict[int, int] = {}  # packed (parent, which, child) -> predicate composite

        def intern_preds(value: tuple) -> int:
            pid = preds.intern(value)
            if pid == len(rows):
                rows.append(tuple(pred in value[i] for i, pred in watched))
            return pid

        def step(key: int) -> int:
            pid = transitions.get(key)
            if pid is None:
                attach, cid = divmod(key, base)
                ppid, which = divmod(attach, 4)
                parent, state = preds.values[ppid], states[cid]
                pid = transitions[key] = intern_preds(
                    tuple([computes[i](parent[i], state[i], which) for i in indices])
                )
            return pid

        # The attachment discipline on packed keys: ``attach`` is
        # ``(parent * 4 + which) * base``, the key prefix of the next node,
        # or None when that node is the second child of the innermost node
        # still awaiting one (``awaiting`` holds their prefixes).
        awaiting: list[int] = []
        depth = 0

        def descend(cids, codes, attach, pids):
            nonlocal depth
            get, pop, push, append = transitions.get, awaiting.pop, awaiting.append, pids.append
            stack, deepest, first, second, quad = awaiting, depth, base, 2 * base, 4 * base
            for cid, code in zip(cids, codes):
                if attach is None:
                    attach = pop()
                key = attach + cid
                pid = get(key)
                if pid is None:
                    pid = step(key)
                append(pid)
                if code:
                    attach = pid * quad
                    if code == 3:
                        push(attach + second)
                        if len(stack) > deepest:
                            deepest = len(stack)
                    attach += first if code & 2 else second
                else:
                    attach = None
            depth = deepest
            return attach

        table = np.zeros((0, len(watched)), bool)

        def select(pids, node: int) -> None:
            nonlocal table
            if len(table) != len(rows):
                table = np.array(rows, bool).reshape(len(rows), len(watched))
            pids = np.array(pids, np.intp)
            tally = np.bincount(pids, minlength=len(rows)) @ table
            for w, (i, pred) in enumerate(watched):
                if tally[w]:
                    counts[i][pred] += int(tally[w])
                    if collect_selected_nodes:
                        selected[i][pred].extend((np.flatnonzero(table[pids, w]) + node).tolist())

        state_reader = PagedReader(state_path, db.page_size, stats=state_io, config=db.pager.without_pool())
        chunks = (
            self._decode(view, start, n, STATE_ENTRY)[::-1]  # backward read: node order
            for view, start, n in state_reader.spans_backward(np.dtype(STATE_ENTRY).itemsize)
        )
        pending = np.zeros(0, np.uint32)

        def take(n: int):
            """The composite ids of the next ``n`` gap nodes."""
            nonlocal pending
            parts = []
            while n > len(pending):
                parts.append(pending)
                n -= len(pending)
                pending = next(chunks, None)
                if pending is None:
                    raise EvaluationError("state file shorter than the database")
            parts.append(pending[:n])
            pending = pending[n:]
            return np.concatenate(parts)

        attach = None
        scan = db.ranged_spans(backward=False, stats=arb_io)
        try:
            for start, count, region in self._segments()[0]:
                if region is not None:
                    # Where each of the run's subtree roots attaches (peeking:
                    # a fallback read must see the untouched discipline).
                    attachments = [] if attach is None else [attach]
                    needed = region.n_roots - len(attachments)
                    if needed > len(awaiting):  # pragma: no cover - defensive
                        raise EvaluationError("skip region inconsistent with the scan stack")
                    attachments += [awaiting[-1 - back] for back in range(needed)]
                    if all(skip.answer_free(preds.values[step(prefix + star)]) for prefix in attachments):
                        # The run selects nothing: cross it without reading.
                        if needed:
                            del awaiting[-needed:]
                        attach = None
                        continue
                node = start
                for view, offset, n in scan.spans_range(db.record_size, start, count):
                    codes = (self._decode(view, offset, n) >> self._shift).tolist()
                    if region is not None:
                        cids = [star] * n  # a fallback read: every node is in s*
                    else:
                        cids = take(n).tolist()
                        if node == 0:  # the root attaches to a prefix no real key has
                            root = states[cids[0]]
                            transitions[cids[0] - base] = intern_preds(
                                tuple(plan.evaluator.root_true_preds(s) for plan, s in zip(plans, root))
                            )
                            attach = -base
                    pids: list[int] = []
                    try:
                        attach = descend(cids, codes, attach, pids)
                    except IndexError:  # the records do not form one tree
                        raise EvaluationError(PHASE1_INCONSISTENT) from None
                    select(pids, node)
                    node += n
        finally:
            scan.close()
        return selected, counts, depth
