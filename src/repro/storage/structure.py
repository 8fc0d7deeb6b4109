"""The decoded shape of a generation, and how an operation edits it.

:func:`_analyse` recovers where every subtree ends in one forward scan of
the `.arb` file, as a :class:`_Structure` cached per content key
(:func:`~repro.storage.paging.content_key`: path, creation counter, size,
mtime) -- the update layer's analogue of plan-cache keying.  The
``_compile_*`` functions turn one operation into the byte edits it makes to
the record file **and** apply it to the structure in place, so the next
operation of a group -- and the next commit on the base -- compile against
the state this one left without another scan, whatever kind of operation it
was: an update stream pays the scan once.  (Query plans themselves never
need generation keys: a :class:`~repro.plan.plan.QueryPlan` is
document-independent by construction, which is precisely why plan-cache
hits survive updates.)
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError
from repro.storage.database import ArbDatabase
from repro.storage.labels import CHARACTER_INDEX_LIMIT, LabelTable
from repro.storage.ops import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    UpdateOp,
    check_node,
    materialize_op,
)
from repro.storage.paging import IOStatistics, content_key
from repro.storage.records import encode_node
from repro.tree.unranked import UnrankedNode, UnrankedTree

# ---------------------------------------------------------------------- #
# Structure analysis (one forward scan, cached per generation)
# ---------------------------------------------------------------------- #


@dataclass
class _Structure:
    """Decoded shape of one generation: enough to locate any splice.

    Three flat sequences indexed by pre-order node id, none of which holds a
    node id: the first child of ``v`` is ``v + 1`` iff ``usize[v] > 1`` and
    its next sibling is ``v + usize[v]`` iff ``has_next[v]``.  So inserting
    or deleting a subtree is a slice assignment on the three sequences plus
    ``usize +- n`` on the ancestors, at 2 + 4 + 1 bytes per node (default
    record size).  The cache hands one instance to every commit; a commit
    edits a :meth:`copy`.
    """

    label_idx: array  # label index per node ("H", "I" or "Q" by record size)
    usize: array  # "I": records of the node's unranked subtree (itself included)
    has_next: bytearray  # 1 iff the node has a next sibling

    @classmethod
    def blank(cls, n: int, record_size: int) -> "_Structure":
        """``n`` nodes for the caller to fill in (each a leaf labelled 0)."""
        code = "HIQ"[(record_size > 2) + (record_size > 4)]
        return cls(array(code, [0]) * n, array("I", [1]) * n, bytearray(n))

    @property
    def n(self) -> int:
        return len(self.label_idx)

    def copy(self) -> "_Structure":
        return _Structure(self.label_idx[:], self.usize[:], self.has_next[:])

    def children(self, node: int) -> Iterator[int]:
        child, end = node + 1, node + self.usize[node]
        while child < end:
            yield child
            child += self.usize[child]

    def path_to(self, node: int) -> tuple[list[int], int]:
        """``node``'s ancestors (root first) and its previous sibling (-1
        for a first child), found by one descent from the root."""
        ancestors: list[int] = []
        previous, current = -1, 0
        while current != node:
            end = current + self.usize[current]
            if node < end:  # inside current's subtree: on to its first child
                ancestors.append(current)
                previous, current = -1, current + 1
            else:  # past it: on to its next sibling
                previous, current = current, end
        return ancestors, previous

    def splice(self, start: int, removed: int, inserted: "_Structure", ancestors: list[int]) -> None:
        """Replace the ``removed`` records from ``start`` on by ``inserted``
        (complete sibling subtrees either way), resizing ``ancestors``."""
        for mine, theirs in zip(self._fields(), inserted._fields()):
            mine[start : start + removed] = theirs
        for ancestor in ancestors:
            self.usize[ancestor] += inserted.n - removed

    def record(self, node: int, record_size: int) -> bytes:
        return encode_node(self.label_idx[node], self.usize[node] > 1, bool(self.has_next[node]), record_size)

    def n_chars(self, start: int = 0, end: int | None = None) -> int:
        """How many of the nodes ``[start, end)`` are text characters."""
        return sum(1 for index in self.label_idx[start:end] if index < CHARACTER_INDEX_LIMIT)

    def _fields(self):
        return self.label_idx, self.usize, self.has_next


def _analyse(database: ArbDatabase, stats: IOStatistics) -> _Structure:
    """One forward scan -> the full :class:`_Structure` of a generation."""
    structure = _Structure.blank(database.n_nodes, database.record_size)
    label_idx, usize, has_next = structure._fields()
    open_nodes: list[int] = []  # ancestors whose child list is still running
    complete = False
    for index, record in enumerate(database.records_forward(stats=stats)):
        if complete:
            raise StorageError("corrupt database: dangling record")
        label_idx[index] = record.label_index
        has_next[index] = record.has_second_child
        if record.has_first_child:
            open_nodes.append(index)
            continue
        node = index
        while not has_next[node]:
            # A child list ended here, so its parent's subtree did too.
            if not open_nodes:
                complete = True
                break
            node = open_nodes.pop()
            usize[node] = index + 1 - node
    if not complete:
        raise StorageError("corrupt database: record stream ends inside a subtree")
    return structure


class _StructureCache:
    """A few per-generation analyses, keyed by the `.arb` file's content key.

    The key is the one a reader's pages are pooled under,
    ``(absolute .arb path, (creation counter, size, mtime_ns))``, so a stale
    analysis can never be applied to a rewritten file.  Entries are small
    (7 bytes per node, see :class:`_Structure`) and a generation's analysis
    is wanted by the one commit that supersedes it, so a handful of slots,
    first in first out, suffice.
    """

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Structure] = {}  # oldest first

    @staticmethod
    def _key(arb_path: str, counter: int) -> tuple | None:
        try:
            status = os.stat(arb_path)
        except OSError:
            return None  # no content to name: no caching, never an error
        return content_key(arb_path, counter, status)

    def get(self, arb_path: str, counter: int) -> _Structure | None:
        """The analysis of ``arb_path`` created under creation ``counter``."""
        with self._lock:
            return self._entries.get(self._key(arb_path, counter))

    def put(self, arb_path: str, counter: int, structure: _Structure) -> None:
        key = self._key(arb_path, counter)
        with self._lock:
            if key is not None:
                self._entries[key] = structure
            while len(self._entries) > self.capacity:
                del self._entries[next(iter(self._entries))]


#: Process-wide analysis cache shared by every update entry point.
structure_cache = _StructureCache()


# ---------------------------------------------------------------------- #
# Edit computation
# ---------------------------------------------------------------------- #


@dataclass
class _EditPlan:
    """The splice an operation compiles to, in record-file byte terms."""

    #: ``(byte offset, replaced byte length, replacement bytes)`` ascending,
    #: non-overlapping, in the coordinates of the state the operation
    #: addresses (the structure *before* the operation was applied to it).
    edits: list[tuple[int, int, bytes]]
    element_delta: int = 0
    char_delta: int = 0


def _patch_record(structure: _Structure, node: int, record_size: int) -> tuple[int, int, bytes]:
    """A single-record edit re-encoding ``node`` as the structure now has it."""
    return (node * record_size, record_size, structure.record(node, record_size))


def _compile_relabel(op: Relabel, structure: _Structure, labels: LabelTable, record_size: int) -> _EditPlan:
    check_node(structure.n, op.node, "relabel target")
    new_index = labels.index_of(op.label, is_text=op.is_text)
    char_delta = (new_index < CHARACTER_INDEX_LIMIT) - (structure.label_idx[op.node] < CHARACTER_INDEX_LIMIT)
    structure.label_idx[op.node] = new_index
    edits = [_patch_record(structure, op.node, record_size)]
    return _EditPlan(edits, element_delta=-char_delta, char_delta=char_delta)


def _compile_delete(
    op: DeleteSubtree, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    check_node(structure.n, op.node, "delete target")
    if op.node == 0:
        raise StorageError("cannot delete the document root (node 0)")
    usize = structure.usize[op.node]
    removed_chars = structure.n_chars(op.node, op.node + usize)
    ancestors, previous = structure.path_to(op.node)
    last = not structure.has_next[op.node]
    structure.splice(op.node, usize, _Structure.blank(0, record_size), ancestors)
    edits: list[tuple[int, int, bytes]] = []
    if last:
        # No next sibling slides into the gap, so the node pointing at the
        # deleted range loses its sibling flag (its child flag went with
        # the parent's subtree shrinking to one record).
        if previous != -1:
            structure.has_next[previous] = 0
        pointer = previous if previous != -1 else ancestors[-1]
        edits.append(_patch_record(structure, pointer, record_size))
    edits.append((op.node * record_size, usize * record_size, b""))
    return _EditPlan(edits, element_delta=removed_chars - usize, char_delta=-removed_chars)


def _compile_insert(
    op: InsertSubtree, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    check_node(structure.n, op.parent, "insert parent")
    children = list(structure.children(op.parent))
    position = len(children) if op.position is None else op.position
    if not 0 <= position <= len(children):
        raise StorageError(
            f"insert position {position} out of range "
            f"(parent {op.parent} has {len(children)} children)"
        )
    # The record before the new subtree's slot, which points at whatever
    # fills it: the parent (first child) or the left sibling (next sibling).
    if position:
        anchor = children[position - 1]
        offset_records, following = anchor + structure.usize[anchor], bool(structure.has_next[anchor])
    else:
        anchor, offset_records, following = op.parent, op.parent + 1, bool(children)
    subtree = _encode_subtree(materialize_op(op).source, labels, record_size, root_has_next_sibling=following)
    n_chars = subtree.n_chars()
    structure.splice(offset_records, 0, subtree, [*structure.path_to(op.parent)[0], op.parent])
    edits: list[tuple[int, int, bytes]] = []
    if not following:
        if position:
            structure.has_next[anchor] = 1
        edits.append(_patch_record(structure, anchor, record_size))
    payload = b"".join(subtree.record(node, record_size) for node in range(subtree.n))
    edits.append((offset_records * record_size, 0, payload))
    return _EditPlan(edits=edits, element_delta=subtree.n - n_chars, char_delta=n_chars)


def _encode_subtree(
    tree: UnrankedTree,
    labels: LabelTable,
    record_size: int,
    *,
    root_has_next_sibling: bool,
) -> _Structure:
    """A whole unranked subtree as a :class:`_Structure` of its own.

    The root's next-sibling flag is the caller's to decide (it depends on
    where the subtree is spliced in); every inner sibling chain is
    self-contained.
    """
    subtree = _Structure.blank(tree.node_count(), record_size)
    label_idx, usize, has_next = subtree._fields()
    parent_of = [-1] * subtree.n
    stack: list[tuple[UnrankedNode, bool, int]] = [(tree.root, root_has_next_sibling, -1)]
    for index in range(subtree.n):
        node, has_next[index], parent_of[index] = stack.pop()
        label_idx[index] = labels.index_of(node.label, is_text=node.is_text)
        children = node.children
        for position in range(len(children) - 1, -1, -1):
            stack.append((children[position], position < len(children) - 1, index))
    for index in range(subtree.n - 1, 0, -1):  # children follow their parent
        usize[parent_of[index]] += usize[index]
    return subtree


_COMPILERS = {Relabel: _compile_relabel, DeleteSubtree: _compile_delete, InsertSubtree: _compile_insert}


def _compile_op(op: UpdateOp, structure: _Structure, labels: LabelTable, record_size: int) -> _EditPlan:
    """``op`` as byte edits against the state ``structure`` describes --
    and applied to ``structure``, which describes the successor state on
    return (and is in an undefined state if this raises: pass a copy)."""
    if type(op) not in _COMPILERS:
        raise StorageError(f"unknown update operation: {op!r}")
    return _COMPILERS[type(op)](op, structure, labels, record_size)
