"""The `.arb` database object: open, scan, decode, load.

An :class:`ArbDatabase` is a handle on the three files created by
:mod:`repro.storage.build` (``<base>.arb``, ``<base>.lab``, ``<base>.meta``).
It exposes the two access paths the paper's algorithms need -- a forward
linear scan (pre-order) and a backward linear scan (reverse pre-order) -- and
decodes label indexes back to names through the label table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import StorageError
from repro.storage.generations import (
    generation_base,
    generation_of_base,
    read_pointer,
    resolve_logical_base,
)
from repro.storage.labels import LabelTable
from repro.storage.paging import (
    DEFAULT_PAGE_SIZE,
    IOStatistics,
    PagedReader,
    PagerConfig,
    check_page_size,
)
from repro.storage.records import (
    NodeRecord,
    decode_node,
    decode_node_value,
    node_record_table,
    record_struct,
)
from repro.tree.binary import NO_NODE, BinaryTree

__all__ = ["ArbDatabase"]


def _read_meta(meta_path: str) -> tuple[int, int, int, int, int]:
    """``(record_size, n_nodes, element_nodes, char_nodes, counter)`` of a
    `.meta` file.

    Anything but a JSON object with integer sizes is a :class:`StorageError`
    naming the file, as for a malformed generation pointer.
    """
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        return (
            int(meta["record_size"]),
            int(meta["n_nodes"]),
            int(meta.get("element_nodes", 0)),
            int(meta.get("char_nodes", 0)),
            int(meta.get("counter", 0)),
        )
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise StorageError(f"malformed database metadata {meta_path}: {error!r}") from error


@dataclass
class ArbDatabase:
    """A read handle on an on-disk Arb tree database."""

    base_path: str
    n_nodes: int
    record_size: int
    labels: LabelTable
    element_nodes: int = 0
    char_nodes: int = 0
    page_size: int = DEFAULT_PAGE_SIZE
    #: What scans fetch pages through (an optional shared buffer pool);
    #: never changes the logical I/O counters.
    pager: PagerConfig = field(default_factory=PagerConfig)
    #: The user-facing base path (without any generation suffix) and the
    #: generation this handle is pinned to.  A handle never re-resolves the
    #: generation pointer: once opened, it is a snapshot.
    logical_base_path: str = ""
    generation: int = 0
    #: The pointer's change counter observed at open time.  Unlike the
    #: generation number, the counter also moves on an in-place rebuild
    #: (which resets the generation to 0), so staleness checks compare it.
    change_counter: int = 0
    #: The pointer counter the generation's files were created under (its
    #: ``.meta`` records it; 0 without one).  Every build and commit writes
    #: a strictly larger one, so it names this generation's content for good.
    creation_counter: int = 0
    # Lazily opened read handle for point lookups (see read_record).
    _point_handle: object = field(default=None, init=False, repr=False, compare=False)

    def close(self) -> None:
        """Close the point-lookup handle, if one was opened."""
        if self._point_handle is not None:
            self._point_handle.close()
            self._point_handle = None

    # ------------------------------------------------------------------ #
    # Opening
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, base_path: str, page_size: int = DEFAULT_PAGE_SIZE,
             pager: PagerConfig | None = None,
             generation: int | None = None) -> "ArbDatabase":
        """Open ``<base_path>.arb`` (with its ``.lab`` and ``.meta`` companions).

        ``pager`` optionally attaches a shared buffer pool to every scan;
        the default is plain reads.

        Opening acquires a **snapshot**: the generation pointer of
        ``base_path`` (if one exists -- see
        :mod:`repro.storage.generations`) is resolved exactly once, here,
        and the handle reads that generation's immutable files forever
        after, however many updates land meanwhile.  ``generation`` pins an
        explicit generation instead of the pointer's current one; a base
        path already carrying a ``.g<N>`` suffix is likewise opened as-is.
        """
        check_page_size(page_size)
        if base_path.endswith(".arb"):
            base_path = base_path[: -len(".arb")]
        # A name like "snapshot.g2" is only a generation of base "snapshot"
        # if that base actually exists; otherwise it is its own base.
        logical = resolve_logical_base(base_path)
        # Finish (or discard) any crashed group commit before trusting the
        # pointer: one stat in the common case, a WAL replay after a crash.
        from repro.storage import wal

        wal.recover_base(logical)
        pointer = read_pointer(logical)
        if generation is not None:
            gen_number, gen_base = generation, generation_base(logical, generation)
        elif base_path != logical:
            gen_number, gen_base = generation_of_base(base_path), base_path
        else:
            gen_number = pointer.generation
            gen_base = generation_base(logical, gen_number)
        arb_path = gen_base + ".arb"
        meta_path = gen_base + ".meta"
        if not os.path.exists(arb_path):
            raise StorageError(f"no such database: {arb_path}")
        if os.path.exists(meta_path):
            record_size, n_nodes, element_nodes, char_nodes, creation_counter = _read_meta(meta_path)
        else:
            # Fall back to the paper's convention: k = 2 and the node count is
            # implied by the file size.
            record_size = 2
            n_nodes = os.path.getsize(arb_path) // record_size
            element_nodes = char_nodes = creation_counter = 0
        expected = n_nodes * record_size
        if os.path.getsize(arb_path) != expected:
            raise StorageError(
                f"{arb_path}: size {os.path.getsize(arb_path)} does not match "
                f"{n_nodes} records of {record_size} bytes"
            )
        labels = LabelTable.load(gen_base + ".lab", max_index=(1 << (8 * record_size - 2)) - 1)
        return cls(
            base_path=gen_base,
            n_nodes=n_nodes,
            record_size=record_size,
            labels=labels,
            element_nodes=element_nodes,
            char_nodes=char_nodes,
            page_size=page_size,
            pager=pager if pager is not None else PagerConfig(),
            logical_base_path=logical,
            generation=gen_number,
            change_counter=pointer.counter,
            creation_counter=creation_counter,
        )

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #

    @property
    def arb_path(self) -> str:
        return self.base_path + ".arb"

    def file_size(self) -> int:
        return os.path.getsize(self.arb_path)

    def reader(self, stats: IOStatistics | None = None, page_filter=None) -> PagedReader:
        """The `.arb` file on this handle's page grid, counting into ``stats``.

        ``page_filter`` optionally guards its scans against touching pages
        they must not (see :class:`~repro.storage.paging.PagerConfig`).
        """
        config = self.pager
        if page_filter is not None:
            config = replace(config, page_filter=page_filter)
        return PagedReader(
            self.arb_path, self.page_size, stats=stats, config=config,
            creation_counter=self.creation_counter,
        )

    def records_forward(self, stats: IOStatistics | None = None) -> Iterator[NodeRecord]:
        """All node records in pre-order (one forward linear scan)."""
        records = _RangedRecords(self.reader(stats), self.record_size, backward=False)
        return records.range(0, self.n_nodes)

    def records_backward(self, stats: IOStatistics | None = None) -> Iterator[NodeRecord]:
        """All node records in reverse pre-order (one backward linear scan)."""
        records = _RangedRecords(self.reader(stats), self.record_size, backward=True)
        return records.range(0, self.n_nodes)

    def ranged_records(self, *, backward: bool, stats: IOStatistics | None = None,
                       page_filter=None) -> "_RangedRecords":
        """A multi-range record scanner (the page-skipping read path).

        Returns an object whose :meth:`~_RangedRecords.range` yields decoded
        :class:`NodeRecord` instances for one record range at a time; all
        ranges of the scan share one page source, and the I/O counters stay
        exact (one seek at the start plus one per page-sequence jump).
        """
        return _RangedRecords(self.reader(stats, page_filter), self.record_size, backward=backward)

    def ranged_spans(self, *, backward: bool, stats: IOStatistics | None = None,
                     page_filter=None):
        """A multi-range *page-span* scanner (the two-phase disk loop's read path).

        Returns a :class:`~repro.storage.paging.RangedScan` whose
        :meth:`~repro.storage.paging.RangedScan.spans_range` yields raw
        ``(view, start, n_records)`` record spans for whole-page decoding
        (e.g. ``array.frombytes``) instead of per-record tuples.  It is the
        scan :meth:`ranged_records` decodes from: scans that fetch the same
        page sequence report the same counters, whichever record view they
        use.
        """
        return self.reader(stats, page_filter).ranged_scan(backward=backward)

    def label_name(self, record: NodeRecord) -> str:
        return self.labels.name_of(record.label_index)

    # ------------------------------------------------------------------ #
    # Point lookups
    # ------------------------------------------------------------------ #

    def read_record(self, node_id: int, stats: IOStatistics | None = None) -> NodeRecord:
        """Read the record of a single node directly from the `.arb` file.

        This is the point-lookup companion of the linear scans: one seek plus
        one ``record_size``-byte read, for introspection (e.g. decoding the
        label of a selected node) without materialising the tree.  The file
        handle is opened lazily once and kept for subsequent lookups.
        """
        if not 0 <= node_id < self.n_nodes:
            raise StorageError(
                f"node id {node_id} out of range (database has {self.n_nodes} nodes)"
            )
        if self._point_handle is None:
            self._point_handle = open(self.arb_path, "rb")
        self._point_handle.seek(node_id * self.record_size)
        raw = self._point_handle.read(self.record_size)
        if len(raw) != self.record_size:
            raise StorageError(f"{self.arb_path}: truncated record for node {node_id}")
        if stats is not None:
            stats.seeks += 1
            stats.bytes_read += len(raw)
            stats.pages_read += 1
        return decode_node(raw, self.record_size)

    def label_of(self, node_id: int, stats: IOStatistics | None = None) -> str:
        """The label of ``node_id`` via a single direct record read."""
        return self.label_name(self.read_record(node_id, stats=stats))

    # ------------------------------------------------------------------ #
    # Materialisation (for tests, small databases and the in-memory engine)
    # ------------------------------------------------------------------ #

    def to_binary_tree(self) -> BinaryTree:
        """Load the database into an in-memory :class:`BinaryTree`.

        The structure is reconstructed from the child flags during a single
        forward scan with the stack discipline of Proposition 5.1.
        """
        labels: list[str] = []
        first_child = [NO_NODE] * self.n_nodes
        second_child = [NO_NODE] * self.n_nodes
        # Stack of node ids still waiting for their second child's subtree.
        awaiting_second: list[int] = []
        # The node that the *next* record attaches to, and how.
        attach_to: int | None = None
        attach_which = 0
        for index, record in enumerate(self.records_forward()):
            labels.append(self.label_name(record))
            if index > 0:
                if attach_to is None:
                    if not awaiting_second:
                        raise StorageError("corrupt database: dangling record")
                    parent = awaiting_second.pop()
                    second_child[parent] = index
                elif attach_which == 1:
                    first_child[attach_to] = index
                else:
                    second_child[attach_to] = index
            if record.has_first_child and record.has_second_child:
                awaiting_second.append(index)
                attach_to, attach_which = index, 1
            elif record.has_first_child:
                attach_to, attach_which = index, 1
            elif record.has_second_child:
                attach_to, attach_which = index, 2
            else:
                attach_to = None
        return BinaryTree(labels, first_child, second_child)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArbDatabase({self.base_path!r}, {self.n_nodes} nodes, k={self.record_size})"


class _RangedRecords:
    """Decoded-record view over a :class:`~repro.storage.paging.RangedScan`.

    Supported record sizes decode page-at-a-time (whole pages unpacked with
    one C-level ``iter_unpack`` call) and raw values are interned through a
    shared value -> :class:`NodeRecord` table, so the per-record Python work
    is a dict hit; exotic record sizes fall back to per-record decoding.
    """

    def __init__(self, reader: PagedReader, record_size: int, *, backward: bool):
        self._scan = reader.ranged_scan(backward=backward)
        self._record_size = record_size
        self._fmt = record_struct(record_size)
        self._table = node_record_table(record_size) if self._fmt is not None else None

    def range(self, start: int, count: int) -> Iterator[NodeRecord]:
        """Records ``start .. start+count-1``, in the scan's direction."""
        if self._fmt is None:
            for raw in self._scan.records_range(self._record_size, start, count):
                yield decode_node(raw, self._record_size)
            return
        table = self._table
        lookup = table.get
        record_size = self._record_size
        for (value,) in self._scan.unpack_range(self._fmt, start, count):
            record = lookup(value)
            if record is None:
                record = table[value] = decode_node_value(value, record_size)
            yield record

    def close(self) -> None:
        self._scan.close()

    def __enter__(self) -> "_RangedRecords":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
