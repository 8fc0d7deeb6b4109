"""The `.idx` page-skipping sidecar: per-page structural summaries.

A generation's ``<base>.idx`` file stores, for every page of the `.arb`
record grid, a compact structural summary of the records that *start* in
the page:

* ``label_bits`` -- a bitset over `.lab` label indexes of those records;
* ``pops`` / ``pushes`` -- the page's net effect on the backward-scan stack
  of Proposition 5.1: processing the page's records in reverse pre-order
  pops ``pops`` states pushed by higher pages and leaves ``pushes`` new
  states on the stack;
* ``min_depth`` / ``first_at_min`` / ``last_at_min`` / ``n_at_min`` -- the
  smallest unranked depth among those records, the offsets (in records,
  from the page's first starting record) of the first and the last record
  at that depth, and how many records are at it.

Summaries compose: for a run of pages processed in backward-scan order
(higher page ``H`` first, lower page ``L`` after),

``pops = H.pops + max(0, L.pops - H.pushes)``
``pushes = L.pushes + max(0, H.pushes - L.pops)``

A page run whose labels are disjoint from a batch's *reachable-label set*
holds only *neutral* nodes, and :func:`compute_skip_regions` turns such runs
into skip regions of two kinds:

* **self-contained** -- composed ``pops == 0``: every child reference of
  its records resolves inside the run, so the run is exactly a forest of
  ``pushes`` complete binary subtrees (the pre-order/subtree-extent
  structure of the first-child/next-sibling encoding makes this exact).
  In the binary encoding such a run is always a suffix of a child list.
* **chain** -- the rest of a run: its records at the minimum depth are
  consecutive siblings ``c_a .. c_b`` under one parent (a shallower record
  between two of them would have to be the second one's parent), so the
  records ``[c_a, c_b)`` are ``b - a`` complete sibling subtrees, each the
  first-child/next-sibling parent of the next.  The scans carry the
  automaton state across them (see :mod:`repro.plan.batch`).

The file is checksummed (``zlib.crc32``); any mismatch, truncation, header
disagreement or other format version makes :func:`load_page_index` return
``None`` and the scans silently fall back to reading every page -- a torn,
stale or old index can cost speed, never answers.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.storage.durability import fsync_file
from repro.storage.generations import logical_base_of
from repro.storage.labels import CHARACTER_INDEX_LIMIT, LabelTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import ArbDatabase

__all__ = [
    "INDEX_SUFFIX",
    "PageIndex",
    "SkipRegion",
    "SummaryAccumulator",
    "write_page_index",
    "load_page_index",
    "index_path_of",
    "index_for",
    "invalidate_index_cache",
    "relevant_label_bits",
    "compute_skip_regions",
    "segments_of",
    "record_pages",
    "summarize_arb_bytes",
]

#: File-name suffix of the sidecar (one per generation, next to ``.arb``).
INDEX_SUFFIX = ".idx"

_MAGIC = b"ARBX"
_VERSION = 2
#: magic, version, record_size, page_size, n_records, n_label_indices
_HEADER = struct.Struct(">4sHHIQI")
#: pops, pushes, min_depth, first_at_min, last_at_min, n_at_min
_PAGE_FIXED = struct.Struct(">IIIIII")
_CRC = struct.Struct(">I")
#: The per-page fields, in row order (the bitset is stored last).
_COLUMNS = ("pops", "pushes", "label_bits", "min_depth", "first_at_min", "last_at_min", "n_at_min")


@dataclass(frozen=True)
class PageIndex:
    """The decoded summaries of one generation's `.arb` pages."""

    page_size: int
    record_size: int
    n_records: int
    n_label_indices: int
    pops: tuple[int, ...]
    pushes: tuple[int, ...]
    label_bits: tuple[int, ...]
    min_depth: tuple[int, ...]
    first_at_min: tuple[int, ...]
    last_at_min: tuple[int, ...]
    n_at_min: tuple[int, ...]

    @property
    def n_pages(self) -> int:
        return len(self.pops)

    def file_size(self) -> int:
        """Size in bytes of the encoded sidecar."""
        bitset_bytes = (self.n_label_indices + 7) // 8
        return _HEADER.size + self.n_pages * (_PAGE_FIXED.size + bitset_bytes) + _CRC.size

    def rows(self) -> list[tuple[int, ...]]:
        """One summary per page, its fields in :data:`_COLUMNS` order."""
        return list(zip(*(getattr(self, name) for name in _COLUMNS)))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, ...]], **header) -> "PageIndex":
        columns = list(zip(*rows)) or [()] * len(_COLUMNS)
        return cls(**header, **dict(zip(_COLUMNS, columns)))


@dataclass(frozen=True)
class SkipRegion:
    """Records ``[start, start + count)`` that both scans cross unread.

    A self-contained region is the records starting in a run of pages and
    ``n_roots`` complete binary subtrees (the composed ``pushes``).  A
    ``chain`` region is ``n_roots`` complete sibling subtrees, the last of
    which has its next sibling right after the region.
    """

    start: int
    count: int
    n_roots: int
    chain: bool = False


# ---------------------------------------------------------------------- #
# Building summaries
# ---------------------------------------------------------------------- #


class SummaryAccumulator:
    """Fold records, fed in **backward** (reverse pre-order) order with
    their unranked depth, into per-page summaries.

    This is exactly the order in which build pass 2 emits records and in
    which any backward scan visits them, so both the builder and the
    from-file recompute path share this accumulator.
    """

    def __init__(self, n_records: int, record_size: int, page_size: int):
        self.n_records = n_records
        self.record_size = record_size
        self.page_size = page_size
        self._next = n_records - 1
        self._page: int | None = None
        self._close_page()
        total = n_records * record_size
        self._n_pages = (total + page_size - 1) // page_size if total else 0
        self._summaries: dict[int, tuple[int, ...]] = {}

    def add(self, label_index: int, has_first_child: bool, has_second_child: bool, depth: int) -> None:
        index = self._next
        if index < 0:
            raise ValueError("SummaryAccumulator: more records than declared")
        self._next = index - 1
        page = (index * self.record_size) // self.page_size
        if page != self._page:
            self._close_page()
            self._page = page
        if has_first_child:
            if self._balance > 0:
                self._balance -= 1
            else:
                self._pops += 1
        if has_second_child:
            if self._balance > 0:
                self._balance -= 1
            else:
                self._pops += 1
        self._balance += 1
        self._bits |= 1 << label_index
        if not self._count or depth < self._depth:  # records arrive last first
            self._depth, self._last, self._count = depth, index, 0
        if depth == self._depth:
            self._first = index
            self._count += 1

    def _close_page(self) -> None:
        if self._page is not None:
            offset = _first_record(self._page, self.record_size, self.page_size) if self._count else 0
            depths = (self._depth, self._first - offset, self._last - offset, self._count)
            self._summaries[self._page] = (self._pops, self._balance, self._bits, *depths)
        self._pops = self._balance = self._bits = 0
        self._depth = self._first = self._last = self._count = 0

    def finish(self, n_label_indices: int) -> PageIndex:
        if self._next != -1:
            raise ValueError(f"SummaryAccumulator: {self._next + 1} records were never fed")
        self._close_page()
        empty = (0,) * len(_COLUMNS)
        return PageIndex.from_rows(
            [self._summaries.get(page, empty) for page in range(self._n_pages)],
            page_size=self.page_size,
            record_size=self.record_size,
            n_records=self.n_records,
            n_label_indices=n_label_indices,
        )


def _first_record(page: int, record_size: int, page_size: int) -> int:
    """The first record starting in ``page`` (or after it, for a page in
    which none starts)."""
    return (page * page_size + record_size - 1) // record_size


def summarize_arb_bytes(
    data: bytes | memoryview,
    *,
    n_records: int,
    record_size: int,
    page_size: int,
    n_label_indices: int,
) -> PageIndex:
    """Summarise a whole `.arb` image held in memory (the oracle of the
    builder's and the splice's summaries; any record size >= 2)."""
    from repro.storage.records import decode_node_value

    records = [
        decode_node_value(int.from_bytes(data[at : at + record_size], "big"), record_size)
        for at in range(0, n_records * record_size, record_size)
    ]
    # Forward pass: a first child is one deeper, a next sibling is level,
    # and after a last leaf comes the pending sibling of its nearest
    # ancestor that has one.
    depths: list[int] = []
    pending: list[int] = []
    depth = 0
    for record in records:
        depths.append(depth)
        if record.has_first_child:
            if record.has_second_child:
                pending.append(depth)
            depth += 1
        elif not record.has_second_child and pending:
            depth = pending.pop()
    accumulator = SummaryAccumulator(n_records, record_size, page_size)
    for record, depth in zip(reversed(records), reversed(depths)):
        accumulator.add(record.label_index, record.has_first_child, record.has_second_child, depth)
    return accumulator.finish(n_label_indices)


# ---------------------------------------------------------------------- #
# Persistence (checksummed; torn writes are detected, never trusted)
# ---------------------------------------------------------------------- #


def index_path_of(base_path: str) -> str:
    """The sidecar path of a generation base path."""
    return base_path + INDEX_SUFFIX


def write_page_index(
    path: str,
    index: PageIndex,
    *,
    fsync: bool = False,
    mid_write_hook: Callable[[], None] | None = None,
) -> None:
    """Encode and write ``index``; ``mid_write_hook`` runs after the header
    hits the file (the update crash suite injects a fault there)."""
    bitset_bytes = (index.n_label_indices + 7) // 8
    parts = [
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            index.record_size,
            index.page_size,
            index.n_records,
            index.n_label_indices,
        )
    ]
    for pops, pushes, bits, *depths in index.rows():
        parts.append(_PAGE_FIXED.pack(pops, pushes, *depths))
        parts.append(bits.to_bytes(bitset_bytes, "little"))
    body = b"".join(parts)
    checksum = _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)
    with open(path, "wb") as handle:
        handle.write(body[: _HEADER.size])
        if mid_write_hook is not None:
            handle.flush()
            mid_write_hook()
        handle.write(body[_HEADER.size :])
        handle.write(checksum)
        if fsync:
            fsync_file(handle)


def load_page_index(path: str) -> PageIndex | None:
    """Decode a sidecar; ``None`` on *any* problem (missing file, bad magic,
    another format version, truncation, checksum mismatch) -- the caller
    falls back to full scans."""
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError:
        return None
    if len(payload) < _HEADER.size + _CRC.size:
        return None
    body, checksum = payload[: -_CRC.size], payload[-_CRC.size :]
    if _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF) != checksum:
        return None
    magic, version, record_size, page_size, n_records, n_label_indices = _HEADER.unpack_from(body)
    if magic != _MAGIC or version != _VERSION or not record_size or not page_size:
        return None
    total = n_records * record_size
    n_pages = (total + page_size - 1) // page_size if total else 0
    bitset_bytes = (n_label_indices + 7) // 8
    expected = _HEADER.size + n_pages * (_PAGE_FIXED.size + bitset_bytes)
    if len(body) != expected:
        return None
    rows = []
    offset = _HEADER.size
    for _ in range(n_pages):
        pops, pushes, *depths = _PAGE_FIXED.unpack_from(body, offset)
        offset += _PAGE_FIXED.size
        bits = int.from_bytes(body[offset : offset + bitset_bytes], "little")
        offset += bitset_bytes
        rows.append((pops, pushes, bits, *depths))
    return PageIndex.from_rows(
        rows,
        page_size=page_size,
        record_size=record_size,
        n_records=n_records,
        n_label_indices=n_label_indices,
    )


# ---------------------------------------------------------------------- #
# Per-generation cache (same fingerprint discipline as the buffer pool)
# ---------------------------------------------------------------------- #

#: Decoded-sidecar cache: ``abspath(idx) -> (logical_base, fingerprint,
#: index | None)``, LRU-bounded and guarded by :data:`_INDEX_CACHE_LOCK`.
#: Threads (a service's workers, a caller's own) load indexes concurrently
#: and a long-lived collection sees a fresh generation path per update, so
#: the cache must be both race-free and bounded: inserts evict superseded
#: generations of the same logical document first, then fall back to plain
#: LRU eviction.
_INDEX_CACHE: "OrderedDict[str, tuple[str, tuple, PageIndex | None]]" = OrderedDict()
_INDEX_CACHE_LOCK = threading.Lock()
_INDEX_CACHE_CAP = 128


def index_for(database: "ArbDatabase") -> PageIndex | None:
    """The sidecar of ``database``'s generation, if present, valid and on the
    same page grid; cached per generation fingerprint."""
    path = index_path_of(database.base_path)
    try:
        stat = os.stat(path)
    except OSError:
        return None
    key = os.path.abspath(path)
    fingerprint = (stat.st_size, stat.st_mtime_ns, database.change_counter)
    with _INDEX_CACHE_LOCK:
        cached = _INDEX_CACHE.get(key)
        if cached is not None and cached[1] == fingerprint:
            _INDEX_CACHE.move_to_end(key)
            index = cached[2]
        else:
            index = False  # sentinel: load outside the lock
    if index is False:
        loaded = load_page_index(path)
        logical = os.path.abspath(logical_base_of(path))
        with _INDEX_CACHE_LOCK:
            # A concurrent loader may have raced us here; last write wins,
            # both computed the same fingerprint's decoding.
            _INDEX_CACHE[key] = (logical, fingerprint, loaded)
            _INDEX_CACHE.move_to_end(key)
            # Evict superseded generations of the same logical document.
            stale = [k for k, v in _INDEX_CACHE.items() if k != key and v[0] == logical]
            for k in stale:
                del _INDEX_CACHE[k]
            while len(_INDEX_CACHE) > _INDEX_CACHE_CAP:
                _INDEX_CACHE.popitem(last=False)
        index = loaded
    if index is None:
        return None
    if (
        index.record_size != database.record_size
        or index.n_records != database.n_nodes
        or index.page_size != database.page_size
    ):
        return None
    return index


def invalidate_index_cache(base_path: str | None = None) -> None:
    """Drop cached sidecars (one generation's, or all)."""
    with _INDEX_CACHE_LOCK:
        if base_path is None:
            _INDEX_CACHE.clear()
        else:
            _INDEX_CACHE.pop(os.path.abspath(index_path_of(base_path)), None)


# ---------------------------------------------------------------------- #
# Plan-side: reachable labels
# ---------------------------------------------------------------------- #


def relevant_label_bits(schemas: Iterable, labels: LabelTable) -> int:
    """The batch's reachable-label set as a bitset over `.arb` label indexes.

    A label name can denote both a text character (its code point) and a
    registered tag; both indexes are included.  Labels the document never
    registered contribute nothing.  The lookup never registers new tags.
    """
    bits = 0
    for schema in schemas:
        for label in schema.positive_labels | schema.negative_labels:
            if len(label) == 1 and ord(label) < CHARACTER_INDEX_LIMIT:
                bits |= 1 << ord(label)
            tag_index = labels.lookup(label)
            if tag_index is not None:
                bits |= 1 << tag_index
    return bits


# ---------------------------------------------------------------------- #
# Skip-region computation
# ---------------------------------------------------------------------- #


def compute_skip_regions(index: PageIndex, relevant_bits: int) -> list[SkipRegion]:
    """The skip regions of the pages disjoint from ``relevant_bits``.

    Page 0 is never skippable (it holds the root record, whose ``Root``
    label set differs from every neutral shape).  Each maximal run of
    label-disjoint candidate pages is grown into a self-contained region
    from its top for as long as the composed ``pops`` stays zero (it is
    monotone as a run extends downward, so that region is maximal), and
    the pages below it become one chain region.
    """
    label_bits = index.label_bits
    pops = index.pops
    pushes = index.pushes
    regions: list[SkipRegion] = []

    def candidate(page: int) -> bool:
        return page >= 1 and not label_bits[page] & relevant_bits

    page = index.n_pages - 1
    while page >= 1:
        if not candidate(page):
            page -= 1
            continue
        top = page
        composed_pushes = 0
        while candidate(page) and pops[page] <= composed_pushes:
            composed_pushes = pushes[page] + (composed_pushes - pops[page])
            page -= 1
        if page < top:
            regions.append(_region_of(index, page + 1, top, composed_pushes))
        top = page
        while candidate(page):
            page -= 1
        if page < top:
            regions.append(_chain_of(index, page + 1, top))
    regions = [region for region in regions if region is not None]
    regions.reverse()
    return regions


def record_pages(start: int, count: int, record_size: int, page_size: int) -> range:
    """The pages the records ``[start, start + count)`` overlap."""
    return range((start * record_size) // page_size, ((start + count) * record_size - 1) // page_size + 1)


def _region_of(index: PageIndex, first_page: int, last_page: int, n_roots: int) -> SkipRegion | None:
    start = _first_record(first_page, index.record_size, index.page_size)
    end = min(_first_record(last_page + 1, index.record_size, index.page_size), index.n_records)
    if end <= start or n_roots <= 0:
        return None
    return SkipRegion(start=start, count=end - start, n_roots=n_roots)


def _chain_of(index: PageIndex, first_page: int, last_page: int) -> SkipRegion | None:
    """The chain region of pages ``first_page..last_page``: from the first of
    the records at their minimum depth up to (not including) the last."""
    pages = [page for page in range(first_page, last_page + 1) if index.n_at_min[page]]
    if not pages:
        return None
    depth = min(index.min_depth[page] for page in pages)
    pages = [page for page in pages if index.min_depth[page] == depth]
    n_siblings = sum(index.n_at_min[page] for page in pages)
    if n_siblings < 2:
        return None
    start = _first_record(pages[0], index.record_size, index.page_size) + index.first_at_min[pages[0]]
    end = _first_record(pages[-1], index.record_size, index.page_size) + index.last_at_min[pages[-1]]
    return SkipRegion(start=start, count=end - start, n_roots=n_siblings - 1, chain=True)


def segments_of(regions: Sequence[SkipRegion], n_records: int):
    """Partition ``[0, n_records)`` into ``(start, count, region|None)``
    triples in ascending order, alternating gaps and skip regions."""
    segments: list[tuple[int, int, SkipRegion | None]] = []
    position = 0
    for region in regions:
        if region.start > position:
            segments.append((position, region.start - position, None))
        segments.append((region.start, region.count, region))
        position = region.start + region.count
    if position < n_records:
        segments.append((position, n_records - position, None))
    return segments
