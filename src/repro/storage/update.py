"""Copy-on-write updates of `.arb` databases with snapshot-isolated readers.

The paper treats the `.arb` file as a static artifact: build once, scan
twice per query.  This module makes documents *mutable* without giving up
any of that story.  A **commit** -- a group of one or more operations, each
relabelling a node, deleting a subtree or inserting one -- produces a **new
generation** of the database beside the old one and atomically swaps the
generation pointer (:mod:`repro.storage.generations`):

* readers that already resolved the pointer keep scanning the immutable old
  generation (their snapshot) to the end, untouched by the swap;
* readers that open after the swap see the new generation, with every
  operation of the group applied -- a group is exactly as visible, and
  exactly as atomic, as one update.

There is one commit protocol, whatever the size of the group
(:func:`apply_update` is :func:`apply_many` with a group of one); the crash
suite can kill it between any two of these steps (:data:`FAULT_POINTS`):

1. analyse the current generation (cached) and parse the operations;
2. append the group's *intent* to the per-base write-ahead log and fsync it
   (:mod:`repro.storage.wal`) -- data fsync 1 of 2;
3. splice the new `.arb`, one splice per operation, each reading its
   predecessor's output; only the final file is fsynced -- data fsync 2 of 2;
4. write `.lab`, `.meta` and `.idx` *without* fsyncs: `.lab` and `.meta` ride
   in the pointer payload, which the swap makes durable anyway, and the
   `.idx` is checksummed, so a torn one only costs scan speed;
5. fsync the directory, then swap the pointer (temp file + fsync + rename +
   directory fsync, counted as one *pointer swap*), then truncate the log.

So a commit of any size costs **at most 2 data fsyncs, 1 WAL append and 1
pointer swap** (a label table too big for the pointer payload pays two
more).  A crash before the log is durable means the commit never happened:
the old generation stays current and byte-identical.  A crash after that
rolls the commit *forward*: the next open (or the next writer) replays the
logged group from the untouched old generation and lands on the same bytes
the crashed writer was producing.  A crash after the swap is a committed
state; recovery only rebuilds torn `.lab`/`.meta` from the pointer payload
and drops the spent log.  A commit that *fails* cleanly (bad node id, empty
result, stale expectation) removes its log record and partial files before
raising -- all or nothing.  ``REPRO_UPDATE_FAULT`` kills the process at any
named stage so the crash suite can check each of these sentences.

The key observation that keeps updates cheap is a property of the encoding:
in first-child/next-sibling pre-order, an unranked subtree is a *contiguous
record range* ``[v, v + usize(v))``, and at most one record outside that
range (the parent or left sibling that points at ``v``) ever needs its
child/sibling flags patched.  A new generation is therefore emitted as a
**splice of the old page grid**: the unchanged prefix and suffix are copied
byte-for-byte in page-size chunks (never decoded), and only the affected
record range plus up to one patch record is re-encoded.  Per operation the
source file is touched by one forward analysis scan plus one sequential
splice copy -- the same "constant number of linear scans" discipline
queries obey.  The analysis of a generation is cached per ``(path,
generation fingerprint)`` -- the update layer's analogue of plan-cache
keying -- and a relabel derives its successor's analysis in memory (one
array copy, no file scan), so relabel-heavy update streams pay the scan
once.  (Query plans themselves never need generation keys: a
:class:`~repro.plan.plan.QueryPlan` is document-independent by
construction, which is precisely why plan-cache hits survive updates.)

Node ids in update operations are pre-order indexes of the state the
operation is applied to -- the same ids query results report; inside a
group, operation ``i`` addresses the state operation ``i - 1`` produced.
The pointer's change counter advances by one per *operation* and the new
generation takes the counter's value as its number, so one group of N and
N groups of one leave the same counter and byte-identical files.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import StorageError
from repro.storage.bufferpool import invalidate_default_pool
from repro.storage.database import ArbDatabase
from repro.storage.durability import (
    FAULT_ENV,
    FAULT_EXIT_CODE,
    fault_point,
    fsync_file,
)
from repro.storage.generations import (
    GenerationPointer,
    creation_counter_of,
    exclusive_writer,
    fsync_directory,
    generation_base,
    prune_generations,
    read_pointer,
    remove_generation_files,
    resolve_logical_base,
    write_metadata,
    write_pointer,
)
from repro.storage.labels import FIRST_TAG_INDEX, LabelTable
from repro.storage.pageindex import (
    PageIndex,
    index_path_of,
    invalidate_index_cache,
    load_page_index,
    summarize_records,
    write_page_index,
)
from repro.storage.paging import DEFAULT_PAGE_SIZE, IOStatistics
from repro.storage.records import encode_node, flag_masks, max_label_index
from repro.tree.unranked import UnrankedNode, UnrankedTree
from repro.tree.xml_io import TEXT_MODES, parse_xml

__all__ = [
    "DeleteSubtree",
    "GroupCommitResult",
    "InsertSubtree",
    "Relabel",
    "UpdateResult",
    "UpdateStatistics",
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "FAULT_POINTS",
    "GROUP_FAULT_POINTS",
    "apply_many",
    "apply_to_tree",
    "apply_update",
    "check_retain",
    "fault_point",
    "op_from_spec",
]


# ---------------------------------------------------------------------- #
# Update operations
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Relabel:
    """Give node ``node`` the label ``label`` (structure unchanged).

    ``is_text`` marks the new label as character data, which routes single
    characters to the reserved character index range exactly as at build
    time.
    """

    node: int
    label: str
    is_text: bool = False


@dataclass(frozen=True)
class DeleteSubtree:
    """Delete node ``node`` and its whole (unranked) subtree.

    The document root (node 0) cannot be deleted -- a database is never
    empty.
    """

    node: int


@dataclass(frozen=True)
class InsertSubtree:
    """Insert a new subtree as a child of ``parent``.

    ``source`` is an XML fragment (a string, parsed with ``text_mode``) or
    an :class:`~repro.tree.unranked.UnrankedTree`.  ``position`` is the
    child index the new subtree lands at (``None`` appends after the last
    existing child).
    """

    parent: int
    source: "str | UnrankedTree"
    position: int | None = None
    text_mode: str = "chars"


UpdateOp = Relabel | DeleteSubtree | InsertSubtree


def _spec_field(spec: dict, name: str, kind: type, default=None):
    """Field ``name`` of an update spec, required unless ``default`` is given.

    Typed strictly -- ``int(1.7)`` would silently address node 1 and
    ``str(None)`` write the label ``"None"``; a bool is not a node id.
    Decimal-digit strings are accepted where an integer is expected.
    """
    value = spec[name] if default is None else spec.get(name, default)
    if kind is int and isinstance(value, str) and value.isdecimal():
        return int(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = {int: "an integer", str: "a string", bool: "true or false"}[kind]
        raise StorageError(f"update spec field {name!r} must be {expected}, got {value!r}")
    return value


def op_from_spec(spec: dict) -> "UpdateOp":
    """Build an update operation from a plain-dictionary description.

    This is the one parser behind every serialised op surface -- the
    ``arb update --group`` JSONL file and the server's ``{"op": "update"}``
    messages -- so they cannot drift apart::

        {"kind": "relabel", "node": 3, "label": "x", "text": false}
        {"kind": "delete", "node": 5}
        {"kind": "insert", "parent": 0, "xml": "<y/>", "at": 1,
         "text_mode": "chars"}
    """
    if not isinstance(spec, dict):
        raise StorageError(f"an update spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "relabel":
            return Relabel(_spec_field(spec, "node", int), _spec_field(spec, "label", str),
                           is_text=_spec_field(spec, "text", bool, False))
        if kind == "delete":
            return DeleteSubtree(_spec_field(spec, "node", int))
        if kind == "insert":
            text_mode = spec.get("text_mode", "chars")
            if text_mode not in TEXT_MODES:
                raise StorageError(
                    f"update spec field 'text_mode' must be one of {TEXT_MODES}, got {text_mode!r}"
                )
            return InsertSubtree(
                _spec_field(spec, "parent", int),
                _spec_field(spec, "xml", str),
                position=None if spec.get("at") is None else _spec_field(spec, "at", int),
                text_mode=text_mode,
            )
    except KeyError as missing:
        raise StorageError(f"update spec {kind!r} is missing field {missing}") from None
    raise StorageError(
        f"unknown update kind {kind!r} (expected relabel, delete or insert)"
    )


# ---------------------------------------------------------------------- #
# Results and telemetry
# ---------------------------------------------------------------------- #


@dataclass
class UpdateStatistics:
    """What one applied update cost, splice-level.

    ``bytes_copied`` is the payload reused from the old generation without
    decoding; ``records_reencoded`` counts the records actually re-emitted
    (the affected range plus at most one flag patch).  ``io`` aggregates the
    physical I/O of the analysis scan and the splice copy.
    """

    records_reencoded: int = 0
    bytes_copied: int = 0
    pages_spliced: int = 0
    analysis_cache_hit: bool = False
    seconds: float = 0.0
    io: IOStatistics = field(default_factory=IOStatistics)


@dataclass
class UpdateResult:
    """Outcome of one commit: where the database moved to.

    A commit of ``n_ops`` operations lands as a single generation:
    ``counter`` advanced by ``n_ops`` in one pointer swap.  Every rider of a
    coalesced write batch resolves with the same instance.
    """

    base_path: str
    old_generation: int
    new_generation: int
    counter: int
    n_nodes: int
    element_nodes: int = 0
    char_nodes: int = 0
    n_tags: int = 0
    arb_bytes: int = 0
    n_ops: int = 1
    #: Whether this commit was a WAL replay of a crashed one.
    replayed: bool = False
    statistics: UpdateStatistics = field(default_factory=UpdateStatistics)


#: Alias for callers that import :func:`apply_many`'s result by this name.
GroupCommitResult = UpdateResult


# ---------------------------------------------------------------------- #
# Crash-fault injection
# ---------------------------------------------------------------------- #

# ``FAULT_ENV`` / ``FAULT_EXIT_CODE`` / ``fault_point`` themselves live in
# :mod:`repro.storage.durability` now (the manifest and build paths inject
# faults too) and are re-exported above for the crash suites, which have
# always imported them from this module.

#: The stages a commit can be killed at, in execution order.  Up to and
#: including ``"wal-append"`` a crash discards the commit; from
#: ``"wal-synced"`` on, the next open rolls it forward.
FAULT_POINTS = (
    "analysis",  # base analysed, operations parsed; nothing written yet
    "wal-append",  # WAL record bytes written, fsync not yet issued
    "wal-synced",  # WAL durable; no generation file written yet
    "mid-arb",  # first bytes of a splice written (torn .arb)
    "after-arb",  # final .arb complete and fsynced
    "mid-idx",  # .idx sidecar header written, body not yet (torn index)
    "after-files",  # .lab, .meta and .idx written too (unsynced)
    "pointer-tmp",  # pointer temp file written, swap not yet performed
    "after-swap",  # pointer atomically replaced; WAL not yet truncated
)

#: The write-ahead-log stages alone (fired inside :mod:`repro.storage.wal`).
GROUP_FAULT_POINTS = ("wal-append", "wal-synced")


# ---------------------------------------------------------------------- #
# Structure analysis (one forward scan, cached per generation)
# ---------------------------------------------------------------------- #


@dataclass
class _Structure:
    """Decoded shape of one generation: enough to locate any splice.

    All arrays are indexed by pre-order node id.  Instances are treated as
    immutable once built (the per-generation cache hands the same object to
    every interested update), except by :meth:`relabelled`, which copies
    what it changes.
    """

    label_idx: list[int]
    first_child: list[int]  # -1 when absent
    second_child: list[int]  # -1 when absent
    referrer: list[tuple[int, int]]  # (pointing node, 1=first/2=second); root (-1, 0)
    bsize: list[int]  # binary-subtree sizes

    @property
    def n(self) -> int:
        return len(self.label_idx)

    def usize(self, node: int) -> int:
        """Records of ``node``'s unranked subtree (node + its descendants)."""
        first = self.first_child[node]
        return 1 + (self.bsize[first] if first != -1 else 0)

    def children_of(self, node: int) -> list[int]:
        out = []
        child = self.first_child[node]
        while child != -1:
            out.append(child)
            child = self.second_child[child]
        return out

    def relabelled(self, node: int, new_index: int) -> "_Structure":
        """The successor structure after relabelling ``node`` (O(n) copy of
        one array, everything structural shared)."""
        labels = list(self.label_idx)
        labels[node] = new_index
        return _Structure(
            label_idx=labels,
            first_child=self.first_child,
            second_child=self.second_child,
            referrer=self.referrer,
            bsize=self.bsize,
        )


def _analyse(database: ArbDatabase, stats: IOStatistics) -> _Structure:
    """One forward scan -> the full :class:`_Structure` of a generation."""
    n = database.n_nodes
    label_idx = [0] * n
    first_child = [-1] * n
    second_child = [-1] * n
    referrer: list[tuple[int, int]] = [(-1, 0)] * n
    awaiting_second: list[int] = []
    attach_to: int | None = None
    attach_which = 0
    for index, record in enumerate(database.records_forward(stats=stats)):
        label_idx[index] = record.label_index
        if index > 0:
            if attach_to is None:
                if not awaiting_second:
                    raise StorageError("corrupt database: dangling record")
                parent = awaiting_second.pop()
                second_child[parent] = index
                referrer[index] = (parent, 2)
            elif attach_which == 1:
                first_child[attach_to] = index
                referrer[index] = (attach_to, 1)
            else:
                second_child[attach_to] = index
                referrer[index] = (attach_to, 2)
        if record.has_first_child and record.has_second_child:
            awaiting_second.append(index)
            attach_to, attach_which = index, 1
        elif record.has_first_child:
            attach_to, attach_which = index, 1
        elif record.has_second_child:
            attach_to, attach_which = index, 2
        else:
            attach_to = None
    # Children always follow their parent in pre-order, so one backward pass
    # resolves every binary-subtree size bottom-up.
    bsize = [1] * n
    for index in range(n - 1, -1, -1):
        size = 1
        if first_child[index] != -1:
            size += bsize[first_child[index]]
        if second_child[index] != -1:
            size += bsize[second_child[index]]
        bsize[index] = size
    return _Structure(label_idx, first_child, second_child, referrer, bsize)


class _StructureCache:
    """A tiny LRU of per-generation analyses, keyed by file fingerprint.

    The key is ``(absolute .arb path, size, mtime_ns, meta counter)`` -- the
    same freshness triple the buffer pool uses -- so a stale analysis can
    never be applied to a rewritten file.  Entries are small (a few int
    arrays) and generations are immutable, so a handful of slots suffice.
    """

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Structure] = {}
        self._order: list[tuple] = []
        self.hits = 0
        self.misses = 0

    def key_for(self, arb_path: str) -> tuple | None:
        try:
            status = os.stat(arb_path)
        except OSError:
            return None
        counter = creation_counter_of(arb_path)
        return (os.path.abspath(arb_path), status.st_size, status.st_mtime_ns, counter)

    def get(self, key: tuple | None) -> _Structure | None:
        if key is None:
            return None
        with self._lock:
            structure = self._entries.get(key)
            if structure is None:
                self.misses += 1
                return None
            self._order.remove(key)
            self._order.append(key)
            self.hits += 1
            return structure

    def put(self, key: tuple | None, structure: _Structure) -> None:
        if key is None:
            return
        with self._lock:
            if key not in self._entries:
                self._order.append(key)
            self._entries[key] = structure
            while len(self._order) > self.capacity:
                evicted = self._order.pop(0)
                del self._entries[evicted]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._order.clear()


#: Process-wide analysis cache shared by every update entry point.
structure_cache = _StructureCache()


# ---------------------------------------------------------------------- #
# Edit computation
# ---------------------------------------------------------------------- #


@dataclass
class _EditPlan:
    """The splice an operation compiles to, in record-file byte terms."""

    #: ``(byte offset, replaced byte length, replacement bytes)`` ascending,
    #: non-overlapping.
    edits: list[tuple[int, int, bytes]]
    n_nodes_delta: int = 0
    element_delta: int = 0
    char_delta: int = 0
    #: Successor structure, when derivable without a rescan (relabels).
    derived: _Structure | None = None


def _check_node(structure: _Structure, node: int, role: str) -> None:
    if not 0 <= node < structure.n:
        raise StorageError(
            f"{role} {node} out of range (database has {structure.n} nodes)"
        )


def _compile_relabel(
    op: Relabel, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    _check_node(structure, op.node, "relabel target")
    new_index = labels.index_of(op.label, is_text=op.is_text)
    old_index = structure.label_idx[op.node]
    record = encode_node(
        new_index,
        structure.first_child[op.node] != -1,
        structure.second_child[op.node] != -1,
        record_size,
    )
    old_char = labels.is_character_index(old_index)
    new_char = labels.is_character_index(new_index)
    return _EditPlan(
        edits=[(op.node * record_size, record_size, record)],
        element_delta=int(old_char) - int(new_char),
        char_delta=int(new_char) - int(old_char),
        derived=structure.relabelled(op.node, new_index),
    )


def _patch_record(
    structure: _Structure,
    node: int,
    record_size: int,
    *,
    has_first: bool | None = None,
    has_second: bool | None = None,
) -> tuple[int, int, bytes]:
    """A single-record edit flipping one child/sibling flag of ``node``."""
    first = structure.first_child[node] != -1 if has_first is None else has_first
    second = structure.second_child[node] != -1 if has_second is None else has_second
    record = encode_node(structure.label_idx[node], first, second, record_size)
    return (node * record_size, record_size, record)


def _compile_delete(
    op: DeleteSubtree, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    _check_node(structure, op.node, "delete target")
    if op.node == 0:
        raise StorageError("cannot delete the document root (node 0)")
    usize = structure.usize(op.node)
    removed_chars = sum(
        1
        for index in range(op.node, op.node + usize)
        if labels.is_character_index(structure.label_idx[index])
    )
    edits: list[tuple[int, int, bytes]] = []
    if structure.second_child[op.node] == -1:
        # No next sibling slides into the gap, so the node pointing at the
        # deleted range loses its child/sibling flag.
        pointer, which = structure.referrer[op.node]
        if which == 1:
            edits.append(_patch_record(structure, pointer, record_size, has_first=False))
        else:
            edits.append(_patch_record(structure, pointer, record_size, has_second=False))
    edits.append((op.node * record_size, usize * record_size, b""))
    return _EditPlan(
        edits=edits,
        n_nodes_delta=-usize,
        element_delta=-(usize - removed_chars),
        char_delta=-removed_chars,
    )


def _compile_insert(
    op: InsertSubtree, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    _check_node(structure, op.parent, "insert parent")
    if isinstance(op.source, UnrankedTree):
        subtree = op.source
    else:
        subtree = parse_xml(op.source, text_mode=op.text_mode)
    children = structure.children_of(op.parent)
    position = len(children) if op.position is None else op.position
    if not 0 <= position <= len(children):
        raise StorageError(
            f"insert position {position} out of range "
            f"(parent {op.parent} has {len(children)} children)"
        )
    edits: list[tuple[int, int, bytes]] = []
    if position == 0:
        offset_records = op.parent + 1
        following = structure.first_child[op.parent]
        if following == -1:
            edits.append(
                _patch_record(structure, op.parent, record_size, has_first=True)
            )
    else:
        anchor = children[position - 1]
        offset_records = anchor + structure.usize(anchor)
        following = structure.second_child[anchor]
        if following == -1:
            edits.append(_patch_record(structure, anchor, record_size, has_second=True))
    payload, n_new, n_chars = _encode_subtree(
        subtree, labels, record_size, root_has_next_sibling=following != -1
    )
    edits.append((offset_records * record_size, 0, payload))
    return _EditPlan(
        edits=edits,
        n_nodes_delta=n_new,
        element_delta=n_new - n_chars,
        char_delta=n_chars,
    )


def _encode_subtree(
    tree: UnrankedTree,
    labels: LabelTable,
    record_size: int,
    *,
    root_has_next_sibling: bool,
) -> tuple[bytes, int, int]:
    """Encode a whole unranked subtree as contiguous pre-order records.

    Returns ``(record bytes, node count, character-node count)``.  The
    root's next-sibling flag is the caller's to decide (it depends on where
    the subtree is spliced in); every inner sibling chain is self-contained.
    """
    out = bytearray()
    n_nodes = 0
    n_chars = 0
    stack: list[tuple[UnrankedNode, bool]] = [(tree.root, root_has_next_sibling)]
    while stack:
        node, has_next = stack.pop()
        index = labels.index_of(node.label, is_text=node.is_text)
        out += encode_node(index, bool(node.children), has_next, record_size)
        n_nodes += 1
        if labels.is_character_index(index):
            n_chars += 1
        children = node.children
        for position in range(len(children) - 1, -1, -1):
            stack.append((children[position], position < len(children) - 1))
    return bytes(out), n_nodes, n_chars


def _compile_op(
    op: UpdateOp, structure: _Structure, labels: LabelTable, record_size: int
) -> _EditPlan:
    if isinstance(op, Relabel):
        return _compile_relabel(op, structure, labels, record_size)
    if isinstance(op, DeleteSubtree):
        return _compile_delete(op, structure, labels, record_size)
    if isinstance(op, InsertSubtree):
        return _compile_insert(op, structure, labels, record_size)
    raise StorageError(f"unknown update operation: {op!r}")


# ---------------------------------------------------------------------- #
# The splice
# ---------------------------------------------------------------------- #


def _splice(
    src_path: str,
    dst_path: str,
    file_size: int,
    edits: list[tuple[int, int, bytes]],
    stats: UpdateStatistics,
    page_size: int,
    *,
    fsync: bool,
) -> None:
    """Emit ``dst`` as ``src`` with ``edits`` applied, copying in page chunks.

    The unchanged ranges are moved with plain buffered block copies on the
    page grid -- no record ever gets decoded.  ``fsync`` says whether the
    destination must be durable on return: only the *final* splice of a
    commit's chain is, the intermediate ones are scratch the WAL can
    always rebuild.
    """
    io = stats.io
    first_write_pending = True

    def wrote() -> None:
        nonlocal first_write_pending
        if first_write_pending:
            first_write_pending = False
            fault_point("mid-arb")

    with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
        position = 0
        for offset, old_length, replacement in edits:
            if offset < position:
                raise StorageError("internal error: overlapping splice edits")
            _copy_range(src, dst, position, offset, page_size, stats, wrote)
            if replacement:
                dst.write(replacement)
                io.bytes_written += len(replacement)
                wrote()
            position = offset + old_length
        _copy_range(src, dst, position, file_size, page_size, stats, wrote)
        if fsync:
            fsync_file(dst)
        else:
            dst.flush()


def _copy_range(src, dst, start: int, end: int, page_size: int, stats, wrote) -> None:
    if end <= start:
        return
    io = stats.io
    src.seek(start)
    io.seeks += 1
    remaining = end - start
    while remaining:
        chunk = src.read(min(page_size, remaining))
        if not chunk:
            raise StorageError("short read while splicing (file changed mid-update?)")
        dst.write(chunk)
        remaining -= len(chunk)
        stats.bytes_copied += len(chunk)
        stats.pages_spliced += 1
        io.bytes_read += len(chunk)
        io.bytes_written += len(chunk)
        io.pages_read += 1
        io.pages_written += 1
        wrote()


# ---------------------------------------------------------------------- #
# The `.idx` sidecar of the spliced generation
# ---------------------------------------------------------------------- #

#: ``(pops, pushes, label_bits)`` of one page, or ``None`` for a *stale* page
#: whose summary must be recomputed from the final `.arb` bytes.
_PageSummary = tuple[int, int, int] | None


def _page_count(file_size: int, page_size: int) -> int:
    return (file_size + page_size - 1) // page_size


def _load_summaries(
    gen_base: str, file_size: int, record_size: int, page_size: int
) -> list[_PageSummary]:
    """The per-page summaries of a generation's `.idx`, all stale when the
    sidecar is missing, torn or on another grid (best effort, like the
    sidecar itself: it only means recomputing more pages)."""
    index = load_page_index(index_path_of(gen_base))
    if (
        index is None
        or index.record_size != record_size
        or index.page_size != page_size
        or index.n_records * record_size != file_size
    ):
        return [None] * _page_count(file_size, page_size)
    return list(zip(index.pops, index.pushes, index.label_bits))


def _carry_summaries(
    old: list[_PageSummary],
    edits: list[tuple[int, int, bytes]],
    old_size: int,
    page_size: int,
) -> list[_PageSummary]:
    """The page summaries of a splice's output, inherited where possible.

    The splice copies whole old-file ranges; a new page lying wholly inside
    a range copied at a *page-aligned* shift holds exactly the records its
    old counterpart held and inherits that page's summary (stale or not).
    Every other page -- overlapping a re-encoded range, or shifted off the
    page grid -- is stale.
    """
    # Copied ranges in new-file byte coordinates, with their shift vs the old
    # file (new position - old position; edits are record-aligned, so shifts
    # always are too).
    copies: list[tuple[int, int, int]] = []
    old_position = 0
    new_position = 0
    for offset, old_length, replacement in [*edits, (old_size, 0, b"")]:
        if offset > old_position:
            length = offset - old_position
            copies.append((new_position, new_position + length, new_position - old_position))
            new_position += length
        new_position += len(replacement)
        old_position = offset + old_length
    new_size = new_position

    new: list[_PageSummary] = [None] * _page_count(new_size, page_size)
    for start, end, shift in copies:
        if shift % page_size:
            continue
        page = _page_count(start, page_size)  # first page starting inside the copy
        while page < len(new):
            new_lo = page * page_size
            new_hi = min(new_lo + page_size, new_size)
            if new_hi > end:
                break
            old_lo = new_lo - shift
            # A short last page only matches an equally short old page.
            if min(old_lo + page_size, old_size) - old_lo == new_hi - new_lo:
                new[page] = old[old_lo // page_size]
            page += 1
    return new


def _write_index(
    gen_base: str,
    summaries: list[_PageSummary],
    *,
    n_nodes: int,
    record_size: int,
    page_size: int,
    n_label_indices: int,
) -> None:
    """Write a spliced generation's `.idx`, summarising its stale pages
    from the final `.arb` bytes (the only writer of a sidecar here).

    No fsync: the file is crc-guarded, and a torn sidecar only costs scan
    speed.  Its I/O is bookkeeping, not splice work, and is deliberately
    left out of the update's ``IOStatistics``.
    """
    first_bit, second_bit = flag_masks(record_size)
    with open(gen_base + ".arb", "rb") as handle:
        for page, summary in enumerate(summaries):
            if summary is not None:
                continue
            # The records *starting* in the page, as the sidecar defines it.
            start = (page * page_size + record_size - 1) // record_size
            end = min(((page + 1) * page_size + record_size - 1) // record_size, n_nodes)
            handle.seek(start * record_size)
            data = handle.read(max(end - start, 0) * record_size)
            records = []
            for position in range(0, len(data), record_size):
                value = int.from_bytes(data[position : position + record_size], "big")
                records.append((value & (second_bit - 1), value & first_bit, value & second_bit))
            summaries[page] = summarize_records(records)
    pops, pushes, bits = zip(*summaries)
    index = PageIndex(
        page_size=page_size,
        record_size=record_size,
        n_records=n_nodes,
        n_label_indices=n_label_indices,
        pops=pops,
        pushes=pushes,
        label_bits=bits,
    )
    write_page_index(
        index_path_of(gen_base), index, mid_write_hook=lambda: fault_point("mid-idx")
    )


# ---------------------------------------------------------------------- #
# Applying updates
# ---------------------------------------------------------------------- #

#: Pointer payloads stay small control files; a label table bigger than this
#: is fsynced eagerly (with `.meta`) instead of riding in the pointer.
_SIDECAR_LIMIT = 64 * 1024


def check_retain(retain_generations: object) -> None:
    """Refuse a ``retain_generations`` that :func:`prune_generations` would
    refuse: ``None`` (keep everything) or an ``int >= 1`` pass.  Public so
    that a write entry which queues updates can refuse at submit time."""
    if retain_generations is not None and (
        type(retain_generations) is not int or retain_generations < 1
    ):
        raise StorageError(
            f"retain_generations must be None or an integer >= 1, got {retain_generations!r}"
        )


def apply_many(
    base_path: str,
    ops: Sequence[UpdateOp],
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    retain_generations: int | None = None,
    expected_generation: int | None = None,
    expected_counter: int | None = None,
) -> UpdateResult:
    """Commit ``ops`` as **one group**: one generation, one pointer swap.

    Sequential semantics (each operation's node ids address the state the
    previous one produced, exactly like committing them one by one) at the
    cost of one commit: however many operations ride in the group, durability is
    two data fsyncs -- the WAL record and the final spliced ``.arb`` --
    plus one pointer swap (the protocol and its crash semantics are the
    module docstring's).  The group is atomic both ways: readers see all of
    it or none of it, and a failed compile (bad node id, empty result)
    rolls everything back before any pointer moves.

    The counter advances by ``len(ops)`` in the single swap, so a group
    leaves the same counter state sequential applies would -- optimistic
    concurrency across mixed writers keeps working unchanged.

    ``retain_generations`` optionally prunes history after a successful
    swap, keeping the new generation plus ``retain_generations - 1``
    predecessors (generation 0 is always kept).  The default keeps
    everything, which is what long-running pinned readers want.  A value
    pruning would refuse is refused here, before the lock and the log: a
    commit must never land and *then* raise.

    Writers of one base path are serialised (threads via a per-base lock,
    processes via an advisory ``flock`` on ``<base>.lock``); readers are
    never blocked.  ``expected_generation`` is the optimistic-concurrency
    guard: the operations' node ids were taken from that generation, and if
    another writer moved the pointer meanwhile the ids may name different
    nodes -- the commit is then refused with a conflict error instead of
    silently mutating the wrong subtree.  ``expected_counter`` is the
    stronger guard over the pointer's change counter, which also moves on
    an in-place *rebuild* (a rebuild resets the generation to 0, so two
    states can share a generation number but never a counter).  ``None``
    applies unconditionally against whatever is current (the single-writer
    CLI convention).
    """
    if base_path.endswith(".arb"):
        base_path = base_path[: -len(".arb")]
    # Agree with ArbDatabase.open on what governs a suffixed path: updating
    # through "doc.g3" must advance "doc", never fork a "doc.g3" lineage.
    base_path = resolve_logical_base(base_path)
    ops = list(ops)
    if not ops:
        raise StorageError("apply_many needs at least one operation")
    check_retain(retain_generations)
    with exclusive_writer(base_path):
        from repro.storage import wal

        # A crashed commit may have left a pending WAL record; finish (or
        # discard) it first, so this writer starts from a settled state.
        wal.recover_locked(base_path)
        return _commit_locked(
            base_path,
            ops,
            page_size=page_size,
            retain_generations=retain_generations,
            expected_generation=expected_generation,
            expected_counter=expected_counter,
        )


def apply_update(
    base_path: str,
    update: UpdateOp,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    retain_generations: int | None = None,
    expected_generation: int | None = None,
    expected_counter: int | None = None,
) -> UpdateResult:
    """Apply one update to the current generation of ``base_path``: a group
    of one, committed exactly as :func:`apply_many` commits any group."""
    return apply_many(
        base_path,
        [update],
        page_size=page_size,
        retain_generations=retain_generations,
        expected_generation=expected_generation,
        expected_counter=expected_counter,
    )


def _check_expected(
    base_path: str,
    pointer: GenerationPointer,
    expected_generation: int | None,
    expected_counter: int | None,
) -> None:
    """Refuse a commit whose node ids were taken from another state."""
    if expected_generation is not None and pointer.generation != expected_generation:
        raise StorageError(
            f"{base_path}: concurrent update conflict -- expected generation "
            f"{expected_generation} but {pointer.generation} is current; "
            f"node ids may be stale (refresh and retry)"
        )
    if expected_counter is not None and pointer.counter != expected_counter:
        raise StorageError(
            f"{base_path}: concurrent update conflict -- expected change "
            f"counter {expected_counter} but {pointer.counter} is current "
            f"(another update or rebuild landed); node ids may be stale "
            f"(refresh and retry)"
        )


def _materialize_op(op: UpdateOp) -> UpdateOp:
    """Pin an insert's XML parse before it is logged or compiled.

    The WAL stores structural trees, never source text, so parsing must
    happen exactly once -- here, with the operation's own ``text_mode`` --
    and both the live apply and any crash replay encode the same nodes.
    """
    if isinstance(op, InsertSubtree) and not isinstance(op.source, UnrankedTree):
        return InsertSubtree(
            parent=op.parent,
            source=parse_xml(op.source, text_mode=op.text_mode),
            position=op.position,
            text_mode=op.text_mode,
        )
    return op


def _commit_locked(
    base_path: str,
    ops: list[UpdateOp],
    *,
    page_size: int,
    retain_generations: int | None = None,
    expected_generation: int | None = None,
    expected_counter: int | None = None,
    replaying: bool = False,
) -> UpdateResult:
    """The one commit routine (writer lock held): every apply entry point
    and the WAL replay (``replaying=True``: the intent is already logged)
    end up here."""
    from repro.storage import wal

    started = time.perf_counter()
    pointer = read_pointer(base_path)
    _check_expected(base_path, pointer, expected_generation, expected_counter)

    old_base = generation_base(base_path, pointer.generation)
    stats = UpdateStatistics()
    database = ArbDatabase.open(old_base, page_size=page_size)
    try:
        record_size = database.record_size
        old_arb = database.arb_path
        old_size = database.file_size()
        cache_key = structure_cache.key_for(old_arb)
        structure = structure_cache.get(cache_key)
        if structure is None:
            structure = _analyse(database, stats.io)
            structure_cache.put(cache_key, structure)
        else:
            stats.analysis_cache_hit = True
        labels = LabelTable.load(old_base + ".lab", max_index=max_label_index(record_size))
        element_nodes = database.element_nodes
        char_nodes = database.char_nodes
    finally:
        database.close()

    ops = [_materialize_op(op) for op in ops]
    n_ops = len(ops)
    new_counter = pointer.counter + n_ops
    new_generation = new_counter  # the counter doubles as the allocator
    new_base = generation_base(base_path, new_generation)
    # The first operation compiles against the base before anything is
    # written, so a rejected single update leaves no trace at all -- and a
    # group that could never start is never promised by the log.
    plan = _compile_op(ops[0], structure, labels, record_size)
    fault_point("analysis")

    if not replaying:
        # Durable intent first (fsync #1): from here on, a crash anywhere
        # before the swap replays this exact group on the next open.
        wal.append_group(
            base_path,
            base_generation=pointer.generation,
            base_counter=pointer.counter,
            target_counter=new_counter,
            page_size=page_size,
            ops=ops,
        )

    temp_paths: list[str] = []
    committed = False
    try:
        # ---- splice chain: op i reads op i-1's output ------------------- #
        src_path, src_size = old_arb, old_size
        summaries = _load_summaries(old_base, old_size, record_size, page_size)
        n_nodes = structure.n
        for position in range(n_ops):
            n_nodes += plan.n_nodes_delta
            if n_nodes <= 0:
                raise StorageError("an update may not leave the database empty")
            element_nodes += plan.element_delta
            char_nodes += plan.char_delta
            last = position == n_ops - 1
            dst_path = new_base + ".arb" if last else f"{new_base}.tmp{position}.arb"
            if not last:
                temp_paths.append(dst_path)
            # Only the last link of the chain is fsynced (fsync #2): the
            # intermediates are scratch the WAL can always rebuild.
            _splice(src_path, dst_path, src_size, plan.edits, stats, page_size, fsync=last)
            summaries = _carry_summaries(summaries, plan.edits, src_size, page_size)
            stats.records_reencoded += sum(
                len(replacement) // record_size for _, _, replacement in plan.edits
            )
            src_path, src_size = dst_path, n_nodes * record_size
            if last:
                break
            if plan.derived is not None:
                structure = plan.derived
            else:
                # Deletes/inserts moved node ids: re-analyse the freshly
                # spliced bytes (in memory, never through any shared cache).
                temp_db = ArbDatabase(
                    base_path=dst_path[: -len(".arb")],
                    n_nodes=n_nodes,
                    record_size=record_size,
                    labels=labels,
                    page_size=page_size,
                )
                structure = _analyse(temp_db, stats.io)
            plan = _compile_op(ops[position + 1], structure, labels, record_size)
        fault_point("after-arb")

        # ---- unsynced sidecars: the pointer payload backs them up ------- #
        labels_text = labels.as_text()
        # A table too big to ride in the pointer pays two extra fsyncs
        # instead of growing the control file without bound.
        embed = len(labels_text) <= _SIDECAR_LIMIT
        labels.save(new_base + ".lab", fsync=not embed)
        meta_payload = write_metadata(
            new_base,
            n_nodes=n_nodes,
            record_size=record_size,
            element_nodes=element_nodes,
            char_nodes=char_nodes,
            n_tags=labels.n_tags,
            counter=new_counter,
            generation=new_generation,
            parent_generation=pointer.generation,
            fsync=not embed,
        )
        _write_index(
            new_base,
            summaries,
            n_nodes=n_nodes,
            record_size=record_size,
            page_size=page_size,
            n_label_indices=FIRST_TAG_INDEX + labels.n_tags,
        )
        # A crashed earlier attempt may have left files under this generation
        # number (the counter only advances at the swap); make sure no pool
        # ever serves their pages now that the retry overwrote them.
        invalidate_default_pool(new_base + ".arb")
        invalidate_index_cache(new_base)
        # The new files' *directory entries* must be durable before a durable
        # pointer can name them -- file-data fsyncs alone do not persist the
        # dirents on a power loss.
        fsync_directory(os.path.dirname(new_base) or ".")
        fault_point("after-files")

        # ---- the atomic swap (commits the whole group at once) ---------- #
        write_pointer(
            base_path,
            GenerationPointer(generation=new_generation, counter=new_counter),
            fault=fault_point,
            sidecar={"meta": meta_payload, "labels": labels_text} if embed else None,
        )
        committed = True
        fault_point("after-swap")
        wal.clear_wal(base_path)
    except BaseException:
        if not committed:
            # A clean failure rejects the group whole: no pointer moved, so
            # drop the intent record and any partial generation files.
            wal.clear_wal(base_path)
            remove_generation_files(base_path, new_generation)
        raise
    finally:
        for temp in temp_paths:
            try:
                os.remove(temp)
            except OSError:
                pass

    if plan.derived is not None:  # the last operation's: the new generation's
        structure_cache.put(structure_cache.key_for(new_base + ".arb"), plan.derived)
    if retain_generations is not None:
        prune_generations(base_path, retain_generations)
    stats.seconds = time.perf_counter() - started
    return UpdateResult(
        base_path=base_path,
        old_generation=pointer.generation,
        new_generation=new_generation,
        counter=new_counter,
        n_nodes=n_nodes,
        element_nodes=element_nodes,
        char_nodes=char_nodes,
        n_tags=labels.n_tags,
        arb_bytes=n_nodes * record_size,
        n_ops=n_ops,
        replayed=replaying,
        statistics=stats,
    )


# ---------------------------------------------------------------------- #
# Pure-tree mirror (reference semantics for tests and docs)
# ---------------------------------------------------------------------- #


def apply_to_tree(tree: UnrankedTree, update: UpdateOp) -> UnrankedTree:
    """What ``update`` does, expressed on an in-memory unranked tree.

    Returns a fresh tree (the input is never mutated).  This is the
    executable specification the property suite holds the splice path to:
    ``apply_update`` on disk must equal rebuild-from-scratch of
    ``apply_to_tree``'s result.
    """
    copy = _copy_tree(tree)
    nodes = list(copy.iter_nodes())  # pre-order: ids line up with .arb ids
    parents: dict[int, UnrankedNode] = {}
    for node in nodes:
        for child in node.children:
            parents[id(child)] = node
    if isinstance(update, Relabel):
        _check_tree_node(nodes, update.node, "relabel target")
        target = nodes[update.node]
        target.label = update.label
        target.is_text = update.is_text
        return copy
    if isinstance(update, DeleteSubtree):
        _check_tree_node(nodes, update.node, "delete target")
        if update.node == 0:
            raise StorageError("cannot delete the document root (node 0)")
        target = nodes[update.node]
        parents[id(target)].children.remove(target)
        return copy
    if isinstance(update, InsertSubtree):
        _check_tree_node(nodes, update.parent, "insert parent")
        if isinstance(update.source, UnrankedTree):
            subtree = _copy_tree(update.source)
        else:
            subtree = parse_xml(update.source, text_mode=update.text_mode)
        parent = nodes[update.parent]
        position = len(parent.children) if update.position is None else update.position
        if not 0 <= position <= len(parent.children):
            raise StorageError(
                f"insert position {position} out of range "
                f"(parent {update.parent} has {len(parent.children)} children)"
            )
        parent.children.insert(position, subtree.root)
        return copy
    raise StorageError(f"unknown update operation: {update!r}")


def _check_tree_node(nodes: list, node: int, role: str) -> None:
    if not 0 <= node < len(nodes):
        raise StorageError(f"{role} {node} out of range (database has {len(nodes)} nodes)")


def _copy_tree(tree: UnrankedTree) -> UnrankedTree:
    root_copy = UnrankedNode(tree.root.label, is_text=tree.root.is_text)
    stack = [(tree.root, root_copy)]
    while stack:
        original, mirror = stack.pop()
        for child in original.children:
            child_copy = UnrankedNode(child.label, is_text=child.is_text)
            mirror.children.append(child_copy)
            stack.append((child, child_copy))
    return UnrankedTree(root_copy)
