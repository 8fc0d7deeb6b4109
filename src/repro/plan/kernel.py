"""The two-phase disk loop: k automata in lockstep over page spans (Sections 4-5).

:func:`~repro.plan.batch.evaluate_batch_on_disk` runs every disk
evaluation -- a batch of k plans, or the batch of one that a single disk
query is -- through the two functions of this module:

* :func:`run_phase1` scans the `.arb` file backwards, one page span at a
  time (:meth:`~repro.storage.paging.RangedScan.spans_range`).  A span is
  decoded with ``array.frombytes`` (``int.from_bytes`` for record sizes
  without an array typecode), and each record value maps, through a dict
  filled on first sight, to its packed alphabet symbol and child-flag code.
  The k per-plan bottom-up automata run over *composite* states: the
  k-tuple of per-plan state ids is interned into one integer, so the
  transition of a node for **all k plans together** is one packed-integer
  dict lookup on a stack as deep as the tree.  Only the first occurrence
  of a (symbol, left, right) triple consults the per-plan evaluators, so
  they see exactly the lazily queried transition set of a per-node
  evaluation and every :class:`EvaluationStatistics` counter is preserved,
  cold and warm.  Each node's composite id goes to the state file
  (:data:`STATE_ENTRY` bytes, whatever k is).
* :func:`run_phase2` scans the `.arb` file forwards while reading the state
  file backwards, runs the k top-down automata over interned predicate
  composites with the awaiting-second stack (again as deep as the tree),
  and selects inline: a predicate composite that holds a watched
  (plan, query predicate) pair appends the node to that pair's list.

Both phases cross the skip regions of the ``.idx`` sidecar as
:mod:`repro.plan.batch` describes: phase 1 decides which ones (and returns
the orbits of the chains it carried a state across), phase 2 crosses
exactly those and reads the rest.

What stays in memory is the two stacks, one page span and the composite
tables -- the lazily built automaton the paper shows stays small.  The one
bound is on distinct record symbols and composite states (:data:`_PACK_BASE`
each), never on nodes; a batch that outgrows it raises
:data:`COMPOSITE_OVERFLOW` instead of risking a colliding key.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.core.two_phase import BOTTOM
from repro.errors import EvaluationError
from repro.storage.labels import RecordShapeLabelSets
from repro.storage.pageindex import record_pages
from repro.storage.paging import IOStatistics, PagedReader, PagedWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.batch import _SkipPlan
    from repro.plan.plan import QueryPlan
    from repro.storage.database import ArbDatabase

__all__ = ["run_phase1", "run_phase2"]

#: Packing base of the transition keys.  A phase-1 key is
#: ``(symbol * base + left) * base + right`` and a phase-2 key
#: ``(parent * 4 + which) * base + child``, so symbol and composite ids below
#: the base keep every key unique.  Read at call time.
_PACK_BASE = 1 << 21

#: Bytes of a state-file entry: one big-endian composite state id per node.
STATE_ENTRY = 4

#: The one message for scanned records that do not form one tree.
PHASE1_INCONSISTENT = "phase 1 did not consume the database consistently"

#: Raised when a batch has :data:`_PACK_BASE` distinct record symbols or
#: composite states -- the loop's only bound.
COMPOSITE_OVERFLOW = "the batch's composite automaton outgrew the kernel's packed transition keys"

#: Unsigned array typecodes by item size (the platform decides which exist).
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}

#: Records are big-endian; arrays hold native ints.
_SWAP = sys.byteorder == "little"

#: First record byte -> child-flag code (2: has a first child, 1: a second).
_FLAG_CODES = bytes(byte >> 6 for byte in range(256))


class StateInterner:
    """Dense integer ids for hashable automaton states.

    Id 0 is the first value ever interned and ids grow densely, so interned
    ids index directly into arrays (``values`` is the inverse mapping).
    Numbers the composite states of both phases.
    """

    __slots__ = ("_ids", "values")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self.values: list[Hashable] = []
        self._ids: dict[Hashable, int] = {}
        for value in values:
            self.intern(value)

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, assigning the next dense id on first sight."""
        found = self._ids.get(value)
        if found is None:
            found = self._ids[value] = len(self.values)
            self.values.append(value)
        return found

    def __len__(self) -> int:
        return len(self.values)


def _decode(view, start, n: int, size: int):
    """The ``n`` big-endian ``size``-byte values of a span (a page-straddling
    record arrives assembled as ``(None, bytes, 1)``), as an indexable
    sequence that is never a list of ints where an array typecode exists."""
    if view is None:
        return [int.from_bytes(start, "big")]
    end = start + n * size
    code = _TYPECODES.get(size)
    if code is None:
        return [int.from_bytes(view[at:at + size], "big") for at in range(start, end, size)]
    values = array(code)
    values.frombytes(view[start:end])
    if _SWAP:
        values.byteswap()
    return values


def _segments(skip: "_SkipPlan | None", n_nodes: int):
    """The ``(start, count, region | None)`` runs of a scan, in node order."""
    return ((0, n_nodes, None),) if skip is None else skip.segments


class _Symbols(dict):
    """Record value (``~value`` for the root) -> ``(symbol * base², child-flag code)``.

    An entry is built on first sight; ``labels[symbol]`` holds the k
    per-plan label sets of the record's shape.
    """

    def __init__(self, plans: Sequence["QueryPlan"], database: "ArbDatabase", base: int):
        super().__init__()
        self._shift = 8 * database.record_size - 2
        self._base = base
        self._label_sets = [
            RecordShapeLabelSets(plan.program.prop_local().schema, database.labels) for plan in plans
        ]
        self.labels: list[tuple] = []

    def __missing__(self, key: int) -> tuple[int, int]:
        if len(self.labels) >= self._base:
            raise EvaluationError(COMPOSITE_OVERFLOW)
        value = ~key if key < 0 else key
        code = value >> self._shift
        shape = (value & ((1 << self._shift) - 1), bool(code & 2), bool(code & 1), key < 0)
        entry = self[key] = (len(self.labels) * self._base * self._base, code)
        self.labels.append(tuple(labels.for_record(*shape) for labels in self._label_sets))
        return entry


# ---------------------------------------------------------------------- #
# Phase 1: backward scan, one composite id per node
# ---------------------------------------------------------------------- #


def run_phase1(
    plans: Sequence["QueryPlan"],
    database: "ArbDatabase",
    skip: "_SkipPlan | None",
    state_path: str,
    arb_io: IOStatistics,
    state_io: IOStatistics,
) -> tuple[int, StateInterner, dict[int, tuple[list[int], int]]]:
    """Write the state file; return ``(deepest stack, composite table,
    orbits)``, where ``orbits`` maps the start of every chain region the
    scan crossed to the orbit it carried (see :func:`_orbit`)."""
    base = _PACK_BASE
    base2 = base * base
    indices = range(len(plans))
    computes = [plan.evaluator.compute_reachable_states for plan in plans]
    composites = StateInterner([(BOTTOM,) * len(plans)])  # id 0: the absent child
    states = composites.values
    intern = composites.intern
    star = intern(skip.star) if skip is not None else 0
    if star >= base:
        raise EvaluationError(COMPOSITE_OVERFLOW)
    symbols = _Symbols(plans, database, base)
    symbol_labels = symbols.labels
    transitions: dict[int, int] = {}  # packed (symbol, left, right) -> composite id

    def resolve(key: int) -> int:
        symbol, children = divmod(key, base2)
        left, right = divmod(children, base)
        lt, rt, labels = states[left], states[right], symbol_labels[symbol]
        cid = intern(tuple([computes[i](lt[i], rt[i], labels[i]) for i in indices]))
        if cid >= base:
            raise EvaluationError(COMPOSITE_OVERFLOW)
        transitions[key] = cid
        return cid

    carries: dict[int, int | None] = {}  # composite id -> g(id), None where a chain is read

    def carry(cid: int) -> int | None:
        if cid not in carries:
            carried = skip.carry(states[cid])
            if carried is not None:
                carried = intern(carried)
                if carried >= base:
                    raise EvaluationError(COMPOSITE_OVERFLOW)
            carries[cid] = carried
        return carries[cid]

    record_size = database.record_size
    entry_code = _TYPECODES[STATE_ENTRY]
    lookup = symbols.__getitem__
    get = transitions.get
    stack: list[int] = []
    pop = stack.pop
    push = stack.append
    depth = 0
    orbits: dict[int, tuple[list[int], int]] = {}
    # The page filter proves that skipped pages are never fetched.
    allowed = set() if skip is None else set(skip.allowed_pages)
    page_filter = None if skip is None else allowed.__contains__
    scan = database.ranged_spans(backward=True, stats=arb_io, page_filter=page_filter)
    try:
        with PagedWriter(state_path, database.page_size, stats=state_io) as writer:
            for start, count, region in reversed(_segments(skip, database.n_nodes)):
                if region is not None and not region.chain:
                    # A self-contained all-neutral run: only its subtree
                    # roots are visible to lower records, each in s*.
                    stack.extend([star] * region.n_roots)
                    depth = max(depth, len(stack))
                    continue
                if region is not None:
                    # The chain's last sibling c_b was just scanned: its
                    # state gives way to that of the chain's first.
                    if not stack:
                        raise EvaluationError(PHASE1_INCONSISTENT)
                    orbit = _orbit(stack[-1], region.n_roots, carry)
                    if orbit is not None:
                        stack[-1] = _nth(orbit, region.n_roots)
                        orbits[start] = orbit
                        continue
                    allowed.update(record_pages(start, count, record_size, database.page_size))
                low = start + count
                for view, offset, n in scan.spans_range(record_size, start, count):
                    low -= n  # the span holds nodes low .. low+n-1, consumed from the top
                    values = _decode(view, offset, n, record_size)
                    entries = map(lookup, reversed(values))
                    if low == 0:  # the root's symbol is its own
                        entries = chain(islice(entries, n - 1), (lookup(~values[0]),))
                    out: list[int] = []
                    append = out.append
                    try:
                        for key, code in entries:
                            if code == 1:
                                key += pop()
                            elif code == 3:
                                key += pop() * base + pop()  # first child, then second
                            elif code:
                                key += pop() * base
                            elif len(stack) >= depth:  # only a leaf grows the stack
                                depth = len(stack) + 1
                            cid = get(key)
                            if cid is None:
                                cid = resolve(key)
                            push(cid)
                            append(cid)
                    except IndexError:  # a pop from the empty stack
                        raise EvaluationError(PHASE1_INCONSISTENT) from None
                    packed = array(entry_code, out)
                    if _SWAP:
                        packed.byteswap()
                    writer.write(packed.tobytes())
        if len(stack) != 1:
            raise EvaluationError(PHASE1_INCONSISTENT)
    finally:
        scan.close()
    return depth, composites, orbits


def _orbit(state: int, n_siblings: int, carry) -> tuple[list[int], int] | None:
    """The states ``g^0(state) .. g^n(state)`` of the carry ``g``, as the
    distinct ones in order plus where their cycle starts -- or ``None`` if
    ``g`` refuses one of ``g^0 .. g^(n-1)``.  It never holds more states
    than the automaton has, however many siblings there are."""
    orbit, seen = [state], {state: 0}
    while len(orbit) <= n_siblings:
        following = carry(orbit[-1])
        if following is None:
            return None
        if following in seen:
            return orbit, seen[following]
        seen[following] = len(orbit)
        orbit.append(following)
    return orbit, len(orbit)


def _nth(orbit: tuple[list[int], int], n: int) -> int:
    """``g^n`` of the orbit's first state."""
    states, loop = orbit
    if n < len(states):
        return states[n]
    return states[loop + (n - loop) % (len(states) - loop)]


# ---------------------------------------------------------------------- #
# Phase 2: forward scan + backward read of the state file
# ---------------------------------------------------------------------- #


def run_phase2(
    plans: Sequence["QueryPlan"],
    database: "ArbDatabase",
    skip: "_SkipPlan | None",
    composites: StateInterner,
    state_path: str,
    arb_io: IOStatistics,
    state_io: IOStatistics,
    collect_selected_nodes: bool,
    orbits: dict[int, tuple[list[int], int]],
) -> tuple[list[dict[str, list[int]]], list[dict[str, int]], int]:
    """Select; return ``(selected, counts, deepest awaiting stack)``.

    Crosses the regions phase 1 crossed -- every self-contained one, and
    the chains that ``orbits`` holds -- and reads the rest."""
    base = _PACK_BASE
    indices = range(len(plans))
    states = composites.values
    computes = [plan.evaluator.compute_true_preds for plan in plans]
    roots = [plan.evaluator.root_true_preds for plan in plans]
    watched = [(i, pred) for i, plan in enumerate(plans) for pred in plan.program.query_predicates]
    selected = [{pred: [] for pred in plan.program.query_predicates} for plan in plans]
    # Where a selected node goes, per watched pair: the answer list, or a
    # per-span list that is counted and cleared after each span.
    sinks = [selected[i][pred] if collect_selected_nodes else [] for i, pred in watched]
    dropped = [0] * len(watched)
    preds = StateInterner()  # predicate composites: k-tuples of true-predicate sets
    adders: dict[int, object] = {}  # selecting predicate composite -> add(node)
    transitions: dict[int, int] = {}  # packed (parent, which, child) -> predicate composite

    def step(key: int) -> int:
        attach, cid = divmod(key, base)
        state = states[cid]
        if attach < 0:  # the root attaches to a prefix no real key has
            value = tuple([roots[i](state[i]) for i in indices])
        else:
            parent_pid, which = divmod(attach, 4)
            parent = preds.values[parent_pid]
            value = tuple([computes[i](parent[i], state[i], which) for i in indices])
        known = len(preds)
        pid = preds.intern(value)
        if pid == known:
            appends = [sinks[w].append for w, (i, pred) in enumerate(watched) if pred in value[i]]
            if len(appends) == 1:
                adders[pid] = appends[0]
            elif appends:  # one composite selecting for several pairs
                adders[pid] = lambda node: [append(node) for append in appends]
        transitions[key] = pid
        return pid

    # The attachment discipline on packed keys: ``attach`` is
    # ``(parent * 4 + which) * base``, the key prefix of the next node,
    # or None when that node is the second child of the innermost node
    # still awaiting one (``awaiting`` holds their prefixes).
    awaiting: list[int] = []
    pop = awaiting.pop
    push = awaiting.append
    get = transitions.get
    first, second, quad = base, 2 * base, 4 * base
    depth = 0
    attach = -base
    record_size = database.record_size
    # The one-shot state file (written once, read once, deleted) is never
    # read through a shared pool; read backwards, it is in node order.
    state_reader = PagedReader(
        state_path, database.page_size, stats=state_io, config=database.pager.without_pool()
    )
    stored = chain.from_iterable(
        reversed(_decode(view, start, n, STATE_ENTRY))
        for view, start, n in state_reader.spans_backward(STATE_ENTRY)
    )
    scan = database.ranged_spans(backward=False, stats=arb_io)
    try:
        for start, count, region in _segments(skip, database.n_nodes):
            if region is not None and not region.chain:
                # Selects nothing (phase 1 checked s*): only the
                # attachments of the run's subtree roots are consumed.
                needed = region.n_roots - (attach is not None)
                del awaiting[len(awaiting) - needed :]
                attach = None
                continue
            if start in orbits:  # a chain phase 1 crossed
                # Selects nothing either: step the top-down sets along the
                # chain, each sibling the second child of the one before.
                orbit = orbits[start]
                if attach is None:
                    attach = pop()
                for left in range(region.n_roots, 0, -1):  # siblings up to c_b
                    key = attach + _nth(orbit, left)
                    pid = get(key)
                    if pid is None:
                        pid = step(key)
                    attach = pid * quad + second
                continue
            node = start
            for view, offset, n in scan.spans_range(record_size, start, count):
                flags = offset[:1] if view is None else view[offset:offset + n * record_size:record_size]
                codes = bytes(flags).translate(_FLAG_CODES)
                for node, code, cid in zip(range(node, node + n), codes, stored):
                    if attach is None:
                        attach = pop()
                    key = attach + cid
                    pid = get(key)
                    if pid is None:
                        pid = step(key)
                    if pid in adders:
                        adders[pid](node)
                    if code:
                        attach = pid * quad
                        if code == 3:
                            push(attach + second)
                            if len(awaiting) > depth:
                                depth = len(awaiting)
                        attach += first if code & 2 else second
                    else:
                        attach = None
                node += 1  # the next span's first node
                if not collect_selected_nodes:
                    for w, sink in enumerate(sinks):
                        dropped[w] += len(sink)
                        sink.clear()
    finally:
        scan.close()
    counts: list[dict[str, int]] = [{} for _ in plans]
    for w, (i, pred) in enumerate(watched):
        counts[i][pred] = dropped[w] + len(sinks[w])
    return selected, counts, depth
