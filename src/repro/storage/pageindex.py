"""The `.idx` page-skipping sidecar: per-page structural summaries.

A generation's ``<base>.idx`` file stores, for every page of the `.arb`
record grid, a compact structural summary:

* ``label_bits`` -- a bitset over `.lab` label indexes of the records that
  *start* in the page;
* ``pops`` / ``pushes`` -- the page's net effect on the backward-scan stack
  of Proposition 5.1: processing the page's records in reverse pre-order
  pops ``pops`` states pushed by higher pages and leaves ``pushes`` new
  states on the stack.

Summaries compose: for a run of pages processed in backward-scan order
(higher page ``H`` first, lower page ``L`` after),

``pops = H.pops + max(0, L.pops - H.pushes)``
``pushes = L.pushes + max(0, H.pushes - L.pops)``

A run with composed ``pops == 0`` is *self-contained*: every child
reference of its records resolves inside the run, so the run is exactly a
forest of ``pushes`` complete binary subtrees (the pre-order/subtree-extent
structure of the first-child/next-sibling encoding makes this exact).  If,
additionally, no record in the run carries a label that any plan of a
batch can observe (the batch's *reachable-label set*), then every node of
the run is *neutral* for every plan -- and when a plan's bottom-up
automaton maps all-neutral subtrees to a single state ``s*`` (checked by
:mod:`repro.plan.batch`), the whole run can be skipped without reading it:
phase 1 pushes ``pushes`` copies of the composite ``s*`` entry, phase 2
carries the top-down run across the extent (see
:mod:`repro.plan.batch`).

The file is checksummed (``zlib.crc32``); any mismatch, truncation or
header disagreement makes :func:`load_page_index` return ``None`` and the
scans silently fall back to reading every page -- a torn or stale index can
cost speed, never answers.
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
    "summarize_arb_bytes",
]

#: File-name suffix of the sidecar (one per generation, next to ``.arb``).
INDEX_SUFFIX = ".idx"

_MAGIC = b"ARBX"
_VERSION = 1
#: magic, version, record_size, page_size, n_records, n_label_indices
_HEADER = struct.Struct(">4sHHIQI")
_PAGE_FIXED = struct.Struct(">II")  # pops, pushes
_CRC = struct.Struct(">I")


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

    @property
    def n_pages(self) -> int:
        return len(self.pops)

    def file_size(self) -> int:
        """Size in bytes of the encoded sidecar."""
        bitset_bytes = (self.n_label_indices + 7) // 8
        return _HEADER.size + self.n_pages * (_PAGE_FIXED.size + bitset_bytes) + _CRC.size


@dataclass(frozen=True)
class SkipRegion:
    """A maximal self-contained run of label-disjoint pages.

    ``start`` / ``count`` delimit the records *starting* in pages
    ``first_page..last_page``; ``n_roots`` is the number of complete binary
    subtrees the run consists of (the composed ``pushes``).
    """

    start: int
    count: int
    n_roots: int
    first_page: int
    last_page: int


# ---------------------------------------------------------------------- #
# Building summaries
# ---------------------------------------------------------------------- #


class SummaryAccumulator:
    """Fold records, fed in **backward** (reverse pre-order) order, into
    per-page summaries.

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
        self._balance = 0
        self._pops = 0
        self._bits = 0
        total = n_records * record_size
        self._n_pages = (total + page_size - 1) // page_size if total else 0
        self._summaries: dict[int, tuple[int, int, int]] = {}

    def add(self, label_index: int, has_first_child: bool, has_second_child: bool) -> None:
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

    def _close_page(self) -> None:
        if self._page is not None:
            self._summaries[self._page] = (self._pops, self._balance, self._bits)
        self._balance = 0
        self._pops = 0
        self._bits = 0

    def finish(self, n_label_indices: int) -> PageIndex:
        if self._next != -1:
            raise ValueError(f"SummaryAccumulator: {self._next + 1} records were never fed")
        self._close_page()
        empty = (0, 0, 0)
        rows = [self._summaries.get(page, empty) for page in range(self._n_pages)]
        return PageIndex(
            page_size=self.page_size,
            record_size=self.record_size,
            n_records=self.n_records,
            n_label_indices=n_label_indices,
            pops=tuple(row[0] for row in rows),
            pushes=tuple(row[1] for row in rows),
            label_bits=tuple(row[2] for row in rows),
        )


def summarize_arb_bytes(
    data: bytes | memoryview,
    *,
    n_records: int,
    record_size: int,
    page_size: int,
    n_label_indices: int,
) -> PageIndex:
    """Summarise a whole `.arb` image held in memory (recompute fallback)."""
    from repro.storage.records import decode_node_value, record_struct

    accumulator = SummaryAccumulator(n_records, record_size, page_size)
    fmt = record_struct(record_size)
    if fmt is None:
        raise ValueError(f"unsupported record size for page index: {record_size}")
    values = [value for (value,) in fmt.iter_unpack(data[: n_records * record_size])]
    for value in reversed(values):
        record = decode_node_value(value, record_size)
        accumulator.add(record.label_index, record.has_first_child, record.has_second_child)
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
    for page in range(index.n_pages):
        parts.append(_PAGE_FIXED.pack(index.pops[page], index.pushes[page]))
        parts.append(index.label_bits[page].to_bytes(bitset_bytes, "little"))
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
    truncation, checksum mismatch) -- the caller falls back to full scans."""
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
    pops: list[int] = []
    pushes: list[int] = []
    bits: list[int] = []
    offset = _HEADER.size
    for _ in range(n_pages):
        pop, push = _PAGE_FIXED.unpack_from(body, offset)
        offset += _PAGE_FIXED.size
        bits.append(int.from_bytes(body[offset : offset + bitset_bytes], "little"))
        offset += bitset_bytes
        pops.append(pop)
        pushes.append(push)
    return PageIndex(
        page_size=page_size,
        record_size=record_size,
        n_records=n_records,
        n_label_indices=n_label_indices,
        pops=tuple(pops),
        pushes=tuple(pushes),
        label_bits=tuple(bits),
    )


# ---------------------------------------------------------------------- #
# Per-generation cache (same fingerprint discipline as the buffer pool)
# ---------------------------------------------------------------------- #

#: Decoded-sidecar cache: ``abspath(idx) -> (logical_base, fingerprint,
#: index | None)``, LRU-bounded and guarded by :data:`_INDEX_CACHE_LOCK`.
#: Thread executors load indexes concurrently and a long-lived collection
#: sees a fresh generation path per update, so the cache must be both
#: race-free and bounded: inserts evict superseded generations of the same
#: logical document first, then fall back to plain LRU eviction.
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
    """Maximal self-contained runs of pages disjoint from ``relevant_bits``.

    Page 0 is never skippable (it holds the root record, whose ``Root``
    label set differs from every neutral shape).  Within each maximal run
    of label-disjoint candidate pages, segments are grown greedily from the
    top: the composed ``pops`` is monotone as a run extends downward, so
    the first zero-``pops`` segment is maximal, and a page whose addition
    breaks it can never top a self-contained segment itself.
    """
    n_pages = index.n_pages
    label_bits = index.label_bits
    pops = index.pops
    pushes = index.pushes
    regions: list[SkipRegion] = []

    page = n_pages - 1
    while page >= 1:
        if label_bits[page] & relevant_bits:
            page -= 1
            continue
        # Grow a segment downward from `page` while it stays candidate and
        # self-contained.
        top = page
        composed_pushes = 0
        bottom = top + 1  # exclusive: segment is [bottom..top] once it moves
        while page >= 1 and not (label_bits[page] & relevant_bits):
            if pops[page] > composed_pushes:
                break
            composed_pushes = pushes[page] + (composed_pushes - pops[page])
            bottom = page
            page -= 1
        if bottom <= top:
            region = _region_of(index, bottom, top, composed_pushes)
            if region is not None:
                regions.append(region)
            if page >= 1 and not (label_bits[page] & relevant_bits):
                # This candidate page broke self-containment; it cannot top a
                # segment (its own pops already exceed any pushes below it).
                page -= 1
        else:
            page -= 1
    regions.reverse()
    return regions


def _region_of(index: PageIndex, first_page: int, last_page: int, n_roots: int) -> SkipRegion | None:
    record_size = index.record_size
    page_size = index.page_size
    start = (first_page * page_size + record_size - 1) // record_size
    end = ((last_page + 1) * page_size + record_size - 1) // record_size
    end = min(end, index.n_records)
    if end <= start or n_roots <= 0:
        return None
    return SkipRegion(
        start=start,
        count=end - start,
        n_roots=n_roots,
        first_page=first_page,
        last_page=last_page,
    )


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
