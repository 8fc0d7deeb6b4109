"""Vectorised lockstep automaton kernel (optional numpy accelerator).

:mod:`repro.plan.batch` holds the reference implementation of the two-phase
disk evaluation: pure-Python loops that, per node and per plan, pay a
label-set lookup, a transition call and list building in the interpreter.
This module is its accelerator.  :func:`batch_kernel` hands
:func:`~repro.plan.batch.evaluate_batch_on_disk` a :class:`_LockstepKernel`
whose two phases replace that per-node work with array computation while
keeping the *evaluation semantics* and the *I/O accounting* exactly
identical -- for a batch of k plans and for the batch of one that a single
disk query is:

* the `.arb` file is read through the same
  :class:`~repro.storage.paging.RangedScan` page walks as the pure path
  (same pages, same seeks, same bytes -- differential-tested the same way
  pooled==unpooled is), whole pages at a time via
  :meth:`~repro.storage.paging.RangedScan.spans_range` and
  ``numpy.frombuffer``;
* the tree structure (child links, subtree extents, stack depths) is
  recovered from the child-flag bits with vectorised prefix sums instead of
  a per-record stack;
* the k per-plan automata run in lockstep over *composite* states: the
  k-tuple of interned per-plan state ids is itself interned into one small
  integer, so the per-node transition for **all k plans together** is a
  single packed-integer dict lookup.  Only the first occurrence of a
  distinct (shape, left, right) composite consults the per-plan evaluators
  -- which therefore see exactly the same lazily-queried transition set as
  the pure path, preserving every :class:`EvaluationStatistics` counter,
  cold and warm;
* skip regions from the ``.idx`` sidecar compose exactly as in the pure
  path: phase 1 pushes the composite ``s*`` per region root without
  reading, and phase 2 replays the same answer-free decisions and fallback
  reads.

Nothing selects the kernel: :func:`batch_kernel` hands it out whenever it
can run -- numpy imports, every plan memoises (the laziness-ablation mode
recomputes transitions per *node*, which arrays cannot reproduce), the
record size has a single-code struct and the document fits the packed-key
bases -- and otherwise returns ``None``, which sends the batch through the
reference loop.  The batch result names the loop that ran
(:attr:`BatchQueryResult.loop <repro.plan.result.BatchQueryResult.loop>`).
Nothing is accepted on faith: the differential suite
``tests/test_kernel_differential.py`` holds the kernel to the reference
loop's answers, statistics and I/O counters, cold and warm, by running the
same batch once with numpy and once with numpy made unavailable to this
module (the situation of the no-numpy CI leg).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.automata import StateInterner
from repro.core.two_phase import BOTTOM
from repro.errors import EvaluationError
from repro.storage.labels import RecordShapeLabelSets
from repro.storage.paging import IOStatistics, PagedReader, PagedWriter
from repro.storage.records import flag_masks, record_struct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan
    from repro.storage.database import ArbDatabase

__all__ = ["numpy_available", "batch_kernel"]

#: Packing base for composite/symbol ids in transition keys.  Documents up
#: to ``_MAX_KERNEL_NODES`` nodes keep every id below the base and every
#: packed key inside an int64, which the (future) wide-level array rounds
#: rely on; larger documents fall back to the pure-Python loop.
_PACK_BASE = 1 << 21
_MAX_KERNEL_NODES = 1 << 20

#: numpy dtypes matching the big-endian record sizes of ``record_struct``.
_SPAN_DTYPES = {1: ">u1", 2: ">u2", 4: ">u4", 8: ">u8"}

#: The one message for a phase-1 scan whose records do not form one tree
#: (raised by the reference loop in :mod:`repro.plan.batch` and by
#: :func:`_require_consistent` here).
PHASE1_INCONSISTENT = "phase 1 did not consume the database consistently"

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
    runs unmemoised, the record size has no single-code struct, or the
    document exceeds the packed-key bound.  ``skip`` is the batch's skip
    plan (``None`` to scan everything) exactly as computed by
    :func:`repro.plan.batch._compute_skip`.
    """
    np = _numpy_module()
    if np is None:
        return None
    if record_struct(database.record_size) is None:
        return None
    if not 0 < database.n_nodes <= _MAX_KERNEL_NODES:
        return None
    for plan in plans:
        if not plan.evaluator.memoize:
            return None
    return _LockstepKernel(np, list(plans), database, skip)


def _require_consistent(ok: bool) -> None:
    if not ok:
        raise EvaluationError(PHASE1_INCONSISTENT)


class _LockstepKernel:
    """One batch of the vectorised lockstep evaluation.

    The object carries phase-1 products (item model, composite state ids)
    into phase 2; create one per ``evaluate_batch_on_disk`` call.
    """

    def __init__(self, np, plans, database, skip):
        self._np = np
        self._plans = plans
        self._database = database
        self._skip = skip
        self._k = len(plans)

    # -------------------------------------------------------------- #
    # Shared helpers
    # -------------------------------------------------------------- #

    def _segments(self):
        if self._skip is None:
            return ((0, self._database.n_nodes, None),), None, None
        skip = self._skip
        return skip.segments, skip.allowed_pages.__contains__, skip.star

    def _read_gap_values_backward(self, segments, page_filter, arb_io):
        """Raw record values per gap segment, fetched in the pure path's
        backward page order (ascending within each returned array)."""
        np = self._np
        db = self._database
        rs = db.record_size
        dtype = _SPAN_DTYPES[rs]
        seg_values: list = [None] * len(segments)
        scan = db.ranged_spans(backward=True, stats=arb_io, page_filter=page_filter)
        try:
            for seg_index in range(len(segments) - 1, -1, -1):
                start, count, region = segments[seg_index]
                if region is not None:
                    continue
                chunks = []
                for view, span_start, span_n in scan.spans_range(rs, start, count):
                    if view is None:
                        chunks.append(
                            np.array([int.from_bytes(span_start, "big")], dtype=np.uint64)
                        )
                    else:
                        chunks.append(
                            np.frombuffer(
                                view, dtype=dtype, count=span_n, offset=span_start
                            ).astype(np.uint64)
                        )
                # Backward spans arrive high-to-low; records within a span
                # are stored ascending, so reversing the span order yields
                # the segment's values in ascending node order.
                chunks.reverse()
                seg_values[seg_index] = (
                    np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
                )
        finally:
            scan.close()
        return seg_values

    # -------------------------------------------------------------- #
    # Phase 1
    # -------------------------------------------------------------- #

    def run_phase1(self, state_path: str, entry_struct, arb_io: IOStatistics,
                   state_io: IOStatistics) -> int:
        np = self._np
        db = self._database
        plans = self._plans
        k = self._k
        indices = range(k)
        rs = db.record_size
        segments, page_filter, star = self._segments()

        seg_values = self._read_gap_values_backward(segments, page_filter, arb_io)

        # ---- item model: gap records plus one pseudo-leaf per region root
        seg_items: list[tuple[int, int]] = []
        pos = 0
        for seg_index, (start, count, region) in enumerate(segments):
            cnt = region.n_roots if region is not None else count
            seg_items.append((pos, cnt))
            pos += cnt
        m = pos
        _require_consistent(m > 0)

        val = np.zeros(m, dtype=np.uint64)
        real = np.zeros(m, dtype=bool)
        for seg_index, (start, count, region) in enumerate(segments):
            a, cnt = seg_items[seg_index]
            if region is None:
                val[a:a + cnt] = seg_values[seg_index]
                real[a:a + cnt] = True

        first_bit, second_bit = flag_masks(rs)
        flag_f = (val & np.uint64(first_bit)) != 0
        flag_s = (val & np.uint64(second_bit)) != 0

        # ---- structure: consistency, stack depth, child links
        c = flag_f.astype(np.int64) + flag_s.astype(np.int64)
        # Backward-scan stack height after processing item t (descending).
        height = np.cumsum((1 - c)[::-1])[::-1]
        _require_consistent(int(height[0]) == 1 and int(height.min()) >= 1)
        max_depth = int(height.max())

        walk = np.cumsum(c - 1) + 1  # running pending count, >= 0 until the last item
        item_idx = np.arange(m, dtype=np.int64)
        fc = np.full(m + 1, m, dtype=np.int64)
        sc = np.full(m + 1, m, dtype=np.int64)
        fc[:m][flag_f] = item_idx[flag_f] + 1
        only_s = flag_s & ~flag_f
        sc[:m][only_s] = item_idx[only_s] + 1
        both = flag_f & flag_s
        t_both = np.nonzero(both)[0]
        if t_both.size:
            # Subtree end of the first child j = t+1: the first e >= j where
            # the running pending count returns to walk[j-1] - 1.
            keys = np.sort(walk * m + item_idx)
            target = (walk[t_both] - 1) * m + (t_both + 1)
            at = np.searchsorted(keys, target, side="left")
            _require_consistent(int(at.max()) < m)
            found = keys[at]
            end_first = found - (walk[t_both] - 1) * m
            _require_consistent(
                bool((found // m == walk[t_both] - 1).all()) and bool((end_first + 1 < m).all())
            )
            sc[:m][both] = end_first + 1

        # ---- symbol interning: one id per distinct raw value (+ the root)
        gap_vals = val[real]
        uniq = np.unique(gap_vals)
        sym = np.searchsorted(uniq, val).astype(np.int64)
        root_sym = len(uniq)
        sym[0] = root_sym  # item 0 is node 0: page 0 is never skipped

        label_sets = [
            RecordShapeLabelSets(plan.program.prop_local().schema, db.labels)
            for plan in plans
        ]
        sym_labels: list[tuple] = []
        for value in uniq.tolist():
            li = value & (second_bit - 1)
            hf = bool(value & first_bit)
            hs = bool(value & second_bit)
            sym_labels.append(tuple(ls.for_record(li, hf, hs, False) for ls in label_sets))
        root_value = int(val[0])
        sym_labels.append(
            tuple(
                ls.for_record(
                    root_value & (second_bit - 1),
                    bool(root_value & first_bit),
                    bool(root_value & second_bit),
                    True,
                )
                for ls in label_sets
            )
        )

        # ---- composite transition loop (descending = children first)
        base = _PACK_BASE
        interner = StateInterner([(BOTTOM,) * k])
        comp_states = interner.values
        comp_of: dict[int, int] = {}
        star_cid = interner.intern(tuple(star)) if star is not None else 0

        computes = [plan.evaluator.compute_reachable_states for plan in plans]

        def resolve(sym_id: int, lcid: int, rcid: int) -> int:
            lt = comp_states[lcid]
            rt = comp_states[rcid]
            labels = sym_labels[sym_id]
            return interner.intern(
                tuple(computes[i](lt[i], rt[i], labels[i]) for i in indices)
            )

        symk = (sym * (base * base)).tolist()
        sym_l = sym.tolist()
        fcl = fc.tolist()
        scl = sc.tolist()
        comp = [0] * (m + 1)  # comp[m] is the absent-child composite
        get = comp_of.get
        for seg_index in range(len(segments) - 1, -1, -1):
            a, cnt = seg_items[seg_index]
            if segments[seg_index][2] is not None:
                for t in range(a, a + cnt):
                    comp[t] = star_cid
                continue
            for t in range(a + cnt - 1, a - 1, -1):
                lcid = comp[fcl[t]]
                rcid = comp[scl[t]]
                key = symk[t] + lcid * base + rcid
                cid = get(key)
                if cid is None:
                    cid = resolve(sym_l[t], lcid, rcid)
                    comp_of[key] = cid
                comp[t] = cid

        # ---- state file: entries in backward visit order, bulk-encoded
        comp_arr = np.array(comp[:m], dtype=np.int64)
        mat = np.array(comp_states, dtype=np.int64).astype(">u4")
        rows = comp_arr[::-1][real[::-1]]
        with PagedWriter(state_path, db.page_size, stats=state_io) as state_writer:
            if rows.size:
                state_writer.write(mat[rows].tobytes())

        # carried into phase 2
        self._seg_items = seg_items
        self._m = m
        self._flag_f = flag_f
        self._flag_s = flag_s
        self._both = both
        self._fc = fc
        self._sc = sc
        self._comp = comp
        self._comp_arr = comp_arr
        self._comp_states = comp_states
        self._star = star
        self._star_cid = star_cid
        return max_depth

    # -------------------------------------------------------------- #
    # Phase 2
    # -------------------------------------------------------------- #

    def run_phase2(self, state_path: str, entry_struct, arb_io: IOStatistics,
                   state_io: IOStatistics, collect_selected_nodes: bool):
        np = self._np
        db = self._database
        plans = self._plans
        k = self._k
        indices = range(k)
        rs = db.record_size
        dtype = _SPAN_DTYPES[rs]
        first_bit, second_bit = flag_masks(rs)
        segments = self._segments()[0]
        seg_items = self._seg_items
        m = self._m
        fc = self._fc
        sc = self._sc
        both = self._both
        comp = self._comp
        comp_states = self._comp_states
        star_cid = self._star_cid
        base4 = _PACK_BASE * 4

        # ---- the composite state file is re-read backwards (same pages,
        # same seek) exactly like the pure path's lazy entry iterator; the
        # decoded entries equal the in-memory composite run by construction.
        state_reader = PagedReader(state_path, db.page_size, stats=state_io,
                                   config=db.pager.without_pool())
        for _span in state_reader.spans_backward(entry_struct.size):
            pass

        # ---- parent links (items attach exactly like the pure discipline)
        item_idx = np.arange(m, dtype=np.int64)
        par = np.full(m + 1, -1, dtype=np.int64)
        wh = np.zeros(m + 1, dtype=np.int64)
        flag_f = self._flag_f
        flag_s = self._flag_s
        f_children = fc[:m][flag_f]
        par[f_children] = item_idx[flag_f]
        wh[f_children] = 1
        s_children = sc[:m][flag_s]
        par[s_children] = item_idx[flag_s]
        wh[s_children] = 2

        # ---- composite predicate interning
        computes = [plan.evaluator.compute_true_preds for plan in plans]
        query_predicates = [plan.program.query_predicates for plan in plans]
        pred_interner = StateInterner()
        pcomp_states = pred_interner.values
        pcomp_of: dict[int, int] = {}
        intern_preds = pred_interner.intern

        def resolve_td(ppid: int, cid: int, which: int) -> int:
            parent = pcomp_states[ppid]
            st = comp_states[cid]
            return intern_preds(
                tuple(computes[i](parent[i], st[i], which) for i in indices)
            )

        root_states = comp_states[comp[0]]
        pp: list = [0] * (m + 1)
        pp[0] = intern_preds(
            tuple(plan.evaluator.root_true_preds(state) for plan, state in zip(plans, root_states))
        )

        # ---- top-down composite sweep over gap items (parents first)
        child_key = (np.array(comp[:m], dtype=np.int64) * 4 + wh[:m]).tolist()
        parl = par.tolist()
        whl = wh.tolist()
        compl = comp
        pget = pcomp_of.get
        for seg_index, (start, count, region) in enumerate(segments):
            if region is not None:
                continue
            a, cnt = seg_items[seg_index]
            lo = a if a > 0 else 1  # item 0 (the root) is preset
            for t in range(lo, a + cnt):
                ppid = pp[parl[t]]
                key = ppid * base4 + child_key[t]
                pid = pget(key)
                if pid is None:
                    pid = resolve_td(ppid, compl[t], whl[t])
                    pcomp_of[key] = pid
                pp[t] = pid

        # ---- per-(plan, predicate) selection tables over interned preds
        n_pids = len(pcomp_states)
        sel_tables: dict[tuple[int, str], object] = {}
        for i in indices:
            for pred in query_predicates[i]:
                sel_tables[(i, pred)] = np.fromiter(
                    (pred in pcomp_states[p][i] for p in range(n_pids)), bool, n_pids
                )

        selected: list[dict[str, list[int]]] = [
            {pred: [] for pred in preds} for preds in query_predicates
        ]
        counts: list[dict[str, int]] = [
            {pred: 0 for pred in preds} for preds in query_predicates
        ]

        # ---- the forward scan: gaps are consumed (counted I/O, answers from
        # the composite run); regions replay the pure answer-free decisions
        scan = db.ranged_spans(backward=False, stats=arb_io)
        try:
            for seg_index, (start, count, region) in enumerate(segments):
                a, cnt = seg_items[seg_index]
                if region is None:
                    for _span in scan.spans_range(rs, start, count):
                        pass
                    pids_arr = np.array(pp[a:a + cnt], dtype=np.int64)
                    for i in indices:
                        for pred in query_predicates[i]:
                            mask = sel_tables[(i, pred)][pids_arr]
                            hit = int(mask.sum())
                            if hit:
                                counts[i][pred] += hit
                                if collect_selected_nodes:
                                    selected[i][pred].extend(
                                        (np.nonzero(mask)[0] + start).tolist()
                                    )
                    continue
                # Attachments of the region's subtree roots, in the pure
                # path's peek order (parent links reproduce the discipline).
                attachments = [(pp[parl[r]], whl[r]) for r in range(a, a + cnt)]
                answer_free = True
                for ppid, which in attachments:
                    key = ppid * base4 + star_cid * 4 + which
                    pid = pget(key)
                    if pid is None:
                        pid = resolve_td(ppid, star_cid, which)
                        pcomp_of[key] = pid
                    if not self._skip.answer_free(pcomp_states[pid]):
                        answer_free = False
                        break
                if answer_free:
                    continue
                # Fallback: read the run (counted I/O) with s* substituted,
                # replaying the pure attachment discipline locally.
                local_awaiting = [ppid for (ppid, _w) in attachments[:0:-1]]
                next_att: tuple[int, int] | None = attachments[0]
                node = start
                for view, span_start, span_n in scan.spans_range(rs, start, count):
                    if view is None:
                        values = [int.from_bytes(span_start, "big")]
                    else:
                        values = np.frombuffer(
                            view, dtype=dtype, count=span_n, offset=span_start
                        ).tolist()
                    for value in values:
                        if next_att is not None:
                            ppid, which = next_att
                        else:
                            ppid, which = local_awaiting.pop(), 2
                        key = ppid * base4 + star_cid * 4 + which
                        pid = pget(key)
                        if pid is None:
                            pid = resolve_td(ppid, star_cid, which)
                            pcomp_of[key] = pid
                        own = pcomp_states[pid]
                        for i in indices:
                            for pred in query_predicates[i]:
                                if pred in own[i]:
                                    counts[i][pred] += 1
                                    if collect_selected_nodes:
                                        selected[i][pred].append(node)
                        hf = bool(value & first_bit)
                        hs = bool(value & second_bit)
                        if hf and hs:
                            local_awaiting.append(pid)
                            next_att = (pid, 1)
                        elif hf:
                            next_att = (pid, 1)
                        elif hs:
                            next_att = (pid, 2)
                        else:
                            next_att = None
                        node += 1
        finally:
            scan.close()

        # ---- awaiting-stack depth of the item model (exact when nothing is
        # skipped, which is the only case whose depth is reported).
        max_depth = 0
        if m:
            delta = np.zeros(m + 1, dtype=np.int64)
            t_both = np.nonzero(both)[0]
            if t_both.size:
                delta[t_both] += 1
                delta[sc[:m][both]] -= 1
            depth = np.cumsum(delta[:m])
            max_depth = max(int(depth.max()), 0)
        return selected, counts, max_depth
