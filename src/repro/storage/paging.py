"""Paged sequential file I/O with instrumentation.

The whole point of the Arb storage model is that query evaluation touches the
data with a small constant number of *linear scans* (forward or backward),
never with random accesses.  This module provides block-buffered readers and
writers that

* read/write fixed-size records sequentially in either direction, and
* count bytes, pages and seeks, so the benchmarks and tests can *verify* the
  access pattern rather than assert it rhetorically (see
  ``benchmarks/`` and the storage tests).

Pages are ``page_size`` bytes (default 64 KiB) on a canonical grid (page *i*
covers bytes ``[i * page_size, (i+1) * page_size)``), so a forward scan, a
backward scan and a concurrent scan of the same file all touch the *same*
pages -- which is what lets a shared
:class:`~repro.storage.bufferpool.BufferPool` serve one scan's pages to
another.  A "seek" is counted at a scan's first page fetch (the reposition to
the start or end of the file) and once more per jump in the fetched page
sequence; a pure sequential scan never adds more than the one.

There is one way to read a file: a :class:`RangedScan` opens the page source,
fetches every page (plain ``read()`` calls, optionally through the shared LRU
:class:`~repro.storage.bufferpool.BufferPool` of a :class:`PagerConfig`) and
counts it; a plain scan is a ranged scan of one range.  The **logical**
:class:`IOStatistics` counters are identical whatever the pool state: a page
access costs one page read whether it came from the OS or the pool.  The
counters are the paper's verifiable artifact -- configuration may change
wall-clock time only.  (Physical reads performed on behalf of a pool are
tracked separately on the pool itself.)

Record decoding is batched: :meth:`RangedScan.unpack_range` runs
``struct.Struct.iter_unpack`` over whole page-aligned spans (one C call per
page instead of one Python-level unpack per record); records straddling a
page boundary -- possible whenever the record size does not divide the page
size -- are stitched individually.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.bufferpool import BufferPool

__all__ = [
    "IOStatistics",
    "PagerConfig",
    "PagedReader",
    "PagedWriter",
    "BackwardPagedWriter",
    "RangedScan",
    "DEFAULT_PAGE_SIZE",
    "check_page_size",
]

DEFAULT_PAGE_SIZE = 64 * 1024


def check_page_size(page_size: object) -> None:
    """Refuse a page size no reader or writer can work with: anything but an
    ``int >= 1`` (bools included), before any file is created or opened."""
    if type(page_size) is not int or page_size < 1:
        raise StorageError(f"page_size must be an integer >= 1, got {page_size!r}")


@dataclass
class IOStatistics:
    """Byte/page/seek counters accumulated by paged readers and writers."""

    bytes_read: int = 0
    bytes_written: int = 0
    pages_read: int = 0
    pages_written: int = 0
    seeks: int = 0

    def merge(self, other: "IOStatistics") -> "IOStatistics":
        """A new :class:`IOStatistics` holding the sum of both operands."""
        return IOStatistics(
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            pages_read=self.pages_read + other.pages_read,
            pages_written=self.pages_written + other.pages_written,
            seeks=self.seeks + other.seeks,
        )

    def add(self, other: "IOStatistics") -> "IOStatistics":
        """Accumulate ``other`` into ``self`` in place and return ``self``.

        The allocation-free sibling of :meth:`merge`, for accumulation
        loops (the collection, batch and service aggregators fold many
        per-document counter updates through it without churning a fresh
        dataclass per step).
        """
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.pages_read += other.pages_read
        self.pages_written += other.pages_written
        self.seeks += other.seeks
        return self

    __iadd__ = add


@dataclass(frozen=True)
class PagerConfig:
    """What a scan's page fetches go through: a shared pool, a page guard.

    ``pool`` is a shared :class:`~repro.storage.bufferpool.BufferPool`
    consulted before the file on every page access; it never changes the
    logical :class:`IOStatistics` of a scan.

    ``page_filter`` is an optional guard predicate over page indexes: a
    scan configured with one must never materialise a page the filter
    rejects, and the fetch raises :class:`~repro.errors.StorageError` if
    asked to.  The page-skipping index uses it to *prove* that skipped
    pages cause no physical I/O (the filter is an assertion, not the skip
    mechanism itself).
    """

    pool: "BufferPool | None" = None
    page_filter: object = None

    def without_pool(self) -> "PagerConfig":
        """This configuration minus the pool and any page filter (for
        single-use temp files, which live on their own page grid)."""
        if self.pool is None and self.page_filter is None:
            return self
        return PagerConfig()


@dataclass
class PagedWriter:
    """Append-only page-buffered writer."""

    path: str
    page_size: int = DEFAULT_PAGE_SIZE
    stats: IOStatistics = field(default_factory=IOStatistics)

    def __post_init__(self) -> None:
        check_page_size(self.page_size)
        self._handle = open(self.path, "wb")
        self._buffer = bytearray()

    def write(self, data: bytes) -> None:
        self._buffer.extend(data)
        while len(self._buffer) >= self.page_size:
            self._flush_page(self.page_size)

    def _flush_page(self, size: int) -> None:
        chunk = bytes(self._buffer[:size])
        del self._buffer[:size]
        self._handle.write(chunk)
        self.stats.bytes_written += len(chunk)
        self.stats.pages_written += 1

    def close(self) -> None:
        if self._buffer:
            self._flush_page(len(self._buffer))
        self._handle.close()

    def __enter__(self) -> "PagedWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BackwardPagedWriter:
    """Writer that fills a file of known size from the end towards the start.

    This is how `.arb` databases are created (Section 5): the total size
    ``k * n`` is known after the first (event-counting) pass, the file is then
    written backwards while the event file is read backwards.  Writes are
    buffered into pages, so the file is touched with one page-sized write per
    page plus one positioning seek per page.
    """

    def __init__(self, path: str, total_size: int, page_size: int = DEFAULT_PAGE_SIZE,
                 stats: IOStatistics | None = None):
        check_page_size(page_size)
        self.path = path
        self.total_size = total_size
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStatistics()
        self._handle = open(path, "wb")
        # Pre-extend the file to its final size so backward page writes land
        # inside an existing allocation.
        if total_size:
            self._handle.truncate(total_size)
        self._position = total_size  # everything at and above this offset is written
        self._chunks: list[bytes] = []  # arrival order; chunk i precedes chunk i-1 on disk
        self._buffered = 0

    def write(self, data: bytes) -> None:
        """Write ``data`` immediately *before* everything written so far."""
        self._chunks.append(bytes(data))
        self._buffered += len(data)
        if self._buffered >= self.page_size:
            self._flush()

    def _flush(self) -> None:
        if not self._chunks:
            return
        # The earliest-arrived chunk occupies the highest disk offsets, so the
        # on-disk byte order of the buffered region is the reverse arrival order.
        chunk = b"".join(reversed(self._chunks))
        self._chunks.clear()
        self._buffered = 0
        start = self._position - len(chunk)
        if start < 0:
            raise StorageError("BackwardPagedWriter overflow: wrote more than total_size bytes")
        self._handle.seek(start)
        self._handle.write(chunk)
        self.stats.seeks += 1
        self.stats.bytes_written += len(chunk)
        self.stats.pages_written += 1
        self._position = start

    def close(self) -> None:
        self._flush()
        if self._position != 0:
            self._handle.close()
            raise StorageError(
                f"BackwardPagedWriter underflow: {self._position} bytes were never written"
            )
        self._handle.close()

    def __enter__(self) -> "BackwardPagedWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self.close()
        else:  # do not mask the original error with an underflow complaint
            self._handle.close()


# ---------------------------------------------------------------------- #
# The page source
# ---------------------------------------------------------------------- #


class _PageSource:
    """Pages via ``read()``, optionally read-through a shared buffer pool."""

    __slots__ = ("_path", "_page_size", "_file_size", "_pool", "_key_path",
                 "_generation", "_handle", "_position", "_filter")

    def __init__(self, reader: "PagedReader"):
        self._path = reader.path
        self._page_size = reader.page_size
        self._file_size = reader.file_size
        self._pool = pool = reader.config.pool
        self._filter = reader.config.page_filter
        self._handle = None
        self._position = 0
        if pool is not None:
            self._key_path = os.path.abspath(reader.path)
            self._generation = pool.generation_for(reader.path)

    def page(self, index: int):
        if self._filter is not None and not self._filter(index):
            raise StorageError(f"{self._path}: page {index} rejected by the page filter")
        base = index * self._page_size
        length = min(self._page_size, self._file_size - base)
        pool = self._pool
        if pool is None:
            return memoryview(self._read(base, length))
        return memoryview(
            pool.read_page(
                self._key_path, self._generation, self._page_size, index,
                lambda: self._read(base, length),
            )
        )

    def _read(self, base: int, length: int) -> bytes:
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self._path, "rb")
            self._position = 0
        if self._position != base:
            handle.seek(base)
        data = handle.read(length)
        self._position = base + len(data)
        if len(data) != length:
            raise StorageError(f"{self._path}: short page read (file changed mid-scan?)")
        return data

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class PagedReader:
    """One file of fixed-size records on the page grid, and its counters.

    The reader holds what every scan of the file shares -- path, page size,
    :class:`PagerConfig` and the :class:`IOStatistics` the scans count into
    -- and reads nothing itself: :meth:`ranged_scan` hands out the
    :class:`RangedScan` that does, and the whole-file streams below are a
    scan of the one range covering the file.

    Records are yielded as zero-copy ``memoryview`` slices of the page
    buffers wherever possible (plain ``bytes`` only for records straddling
    a page boundary); consumers that hold on to records beyond the scan
    should copy them with ``bytes(record)``.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 stats: IOStatistics | None = None,
                 config: PagerConfig | None = None):
        check_page_size(page_size)
        if not os.path.exists(path):
            raise StorageError(f"no such file: {path}")
        self.path = path
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStatistics()
        self.config = config if config is not None else PagerConfig()
        self.file_size = os.path.getsize(path)

    def ranged_scan(self, *, backward: bool = False) -> "RangedScan":
        """The scan that reads this file, one record range at a time.

        Each range is walked in the scan's direction, pages shared between
        adjacent ranges are fetched once, and a seek is counted at the first
        fetch plus once per discontinuity in the fetched page sequence -- so
        one range covering the whole file costs exactly one seek.
        """
        return RangedScan(self, backward=backward)

    def _whole(self, decoder, unit, count: int | None, backward: bool):
        """``decoder`` (a :class:`RangedScan` method) over the one range
        covering the file: all its whole records, or the ``count`` first
        (forward) / last (backward)."""
        record_size = getattr(unit, "size", unit)
        if record_size <= 0:
            raise StorageError("record_size must be positive")
        in_file = self.file_size // record_size
        total = in_file if count is None else count
        scan = self.ranged_scan(backward=backward)
        return decoder(scan, unit, in_file - total if backward else 0, total)

    def records_forward(self, record_size: int, count: int | None = None):
        """Yield fixed-size records from the start of the file towards its end."""
        return self._whole(RangedScan.records_range, record_size, count, False)

    def records_backward(self, record_size: int, count: int | None = None):
        """Yield fixed-size records from the end of the file towards its start."""
        return self._whole(RangedScan.records_range, record_size, count, True)

    def unpack_backward(self, fmt: struct.Struct, count: int | None = None) -> Iterator[tuple]:
        """Decode records backward with one ``iter_unpack`` per in-page span."""
        return self._whole(RangedScan.unpack_range, fmt, count, True)

    def spans_backward(self, record_size: int, count: int | None = None):
        """Yield ``(view, start, n_records)`` record spans in backward order."""
        return self._whole(RangedScan.spans_range, record_size, count, True)


# ---------------------------------------------------------------------- #
# The scan: the one place that opens a source, fetches a page and counts it
# ---------------------------------------------------------------------- #


class RangedScan:
    """Scan selected record ranges of one file through a single page source.

    Every read of a paged file is one of these.  A full scan is the one
    range covering the file; the index-guided batch evaluator reads the
    file as a sequence of *gaps* between skipped regions.  All ranges of
    one scan share the page source and a one-page cache (a page holding
    both the tail of one range and the head of the next is fetched once),
    and the accounting stays honest:

    * ``pages_read`` / ``bytes_read`` count every page actually fetched,
      exactly once per scan;
    * ``seeks`` counts the first fetch plus one per discontinuity in the
      fetched page sequence -- so a scan whose single range covers the
      whole file costs exactly one seek, every skip that jumps pages costs
      exactly one more, and a scan that fetches no page counts none.

    The direction is fixed at creation and ranges must be visited in scan
    order (ascending for a forward scan, descending for a backward one).
    The three decoders yield a range as page spans (:meth:`spans_range`),
    struct tuples (:meth:`unpack_range`) or raw records
    (:meth:`records_range`).
    """

    def __init__(self, reader: PagedReader, *, backward: bool = False):
        self._reader = reader
        self._step = -1 if backward else 1
        self._backward = backward
        self._source: _PageSource | None = None
        self._cache_index: int | None = None
        self._cache_view = None
        self._last_fetched: int | None = None

    def _fetch(self, index: int):
        if index == self._cache_index:
            return self._cache_view
        if self._source is None:
            self._source = _PageSource(self._reader)
        view = self._source.page(index)
        stats = self._reader.stats
        stats.bytes_read += len(view)
        stats.pages_read += 1
        if self._last_fetched is None or index != self._last_fetched + self._step:
            stats.seeks += 1
        self._last_fetched = index
        self._cache_index = index
        self._cache_view = view
        return view

    # ------------------------------------------------------------------ #
    # The three decoders
    # ------------------------------------------------------------------ #

    def spans_range(self, record_size: int, start: int, count: int):
        """Records ``start .. start+count-1`` as ``(view, start, n_records)`` spans.

        Each span is a run of ``n_records`` contiguous records beginning at
        byte ``start`` of ``view``, ready for one C-level decode
        (``struct.iter_unpack`` or ``array.frombytes``); a record that
        straddles a page boundary arrives assembled as ``(None, bytes, 1)``.
        A backward scan yields spans in descending page order, and each
        span's records (stored ascending) are consumed from its high end.
        """
        walk = self._walk_backward if self._backward else self._walk_forward
        try:
            yield from walk(record_size, start, count)
        finally:
            # The file is held open only while a range is walked (the cached
            # page survives), so a one-range scan needs no close() from its
            # consumer; the next range reopens it on its first real read.
            if self._source is not None:
                self._source.close()

    def unpack_range(self, fmt: struct.Struct, start: int, count: int) -> Iterator[tuple]:
        """What ``fmt.unpack`` gives per record of the range, in the scan
        direction, with one C-level ``iter_unpack`` per span."""
        size = fmt.size
        for view, span_start, n in self.spans_range(size, start, count):
            if view is None:
                yield fmt.unpack(span_start)
            elif self._backward:
                yield from reversed(list(fmt.iter_unpack(view[span_start:span_start + n * size])))
            else:
                yield from fmt.iter_unpack(view[span_start:span_start + n * size])

    def records_range(self, record_size: int, start: int, count: int):
        """Raw fixed-size records of one range, in the scan direction."""
        for view, span_start, n in self.spans_range(record_size, start, count):
            if view is None:
                yield span_start
            else:
                positions = range(span_start, span_start + n * record_size, record_size)
                for position in reversed(positions) if self._backward else positions:
                    yield view[position:position + record_size]

    # ------------------------------------------------------------------ #
    # The two page walks
    # ------------------------------------------------------------------ #

    def _short(self, record_size: int, total: int, emitted: int) -> StorageError:
        return StorageError(
            f"{self._reader.path}: expected {total} records of {record_size} bytes, got {emitted}"
        )

    def _walk_forward(self, record_size: int, first: int, total: int):
        """Spans of ``total`` records from record ``first`` upwards.

        Every page on the canonical grid is fetched at most once and
        counted exactly when fetched.
        """
        if total <= 0:
            return
        fetch = self._fetch
        page_size = self._reader.page_size
        file_size = self._reader.file_size
        offset = first * record_size
        first_page = offset // page_size
        emitted = 0
        carry = bytearray()
        for page_index in range(first_page, (file_size + page_size - 1) // page_size):
            view = fetch(page_index)
            start = offset - page_index * page_size if page_index == first_page else 0
            if start >= len(view):
                continue
            if carry:
                take = min(record_size - len(carry), len(view) - start)
                carry += view[start:start + take]
                start += take
                if len(carry) < record_size:
                    continue
                yield None, bytes(carry), 1
                carry.clear()
                emitted += 1
                if emitted >= total:
                    return
            span = (len(view) - start) // record_size
            if span > total - emitted:
                span = total - emitted
            if span:
                yield view, start, span
                emitted += span
                if emitted >= total:
                    return
                start += span * record_size
            if start < len(view):
                carry += view[start:]
        raise self._short(record_size, total, emitted)

    def _walk_backward(self, record_size: int, first: int, total: int):
        """Spans of ``total`` records from record ``first + total - 1`` downwards."""
        if total <= 0:
            return
        fetch = self._fetch
        page_size = self._reader.page_size
        rec_end = (first + total) * record_size  # just past the next record to emit
        in_file = self._reader.file_size // record_size
        if first + total > in_file:
            raise self._short(record_size, total, max(0, in_file - first))
        emitted = 0
        pending: list = []  # segments of the straddler being assembled, high to low
        for page_index in range((rec_end - 1) // page_size, -1, -1):
            view = fetch(page_index)
            base = page_index * page_size
            if pending:
                rec_start = rec_end - record_size
                pending.append(view[max(rec_start - base, 0):len(view)])
                if rec_start < base:
                    continue  # the record reaches below this page too
                yield None, b"".join(reversed(pending)), 1
                pending.clear()
                emitted += 1
                rec_end = rec_start
                if emitted >= total:
                    return
            span = (rec_end - base) // record_size
            if span > total - emitted:
                span = total - emitted
            if span:
                span_start = rec_end - base - span * record_size
                yield view, span_start, span
                emitted += span
                rec_end -= span * record_size
                if emitted >= total:
                    return
            if rec_end > base:
                # A record straddles this page's lower boundary; hold its
                # top part until the lower page(s) provide the rest.
                pending.append(view[0:rec_end - base])
        raise self._short(record_size, total, emitted)

    def close(self) -> None:
        """Drop the page source and the cached page."""
        if self._source is not None:
            self._source.close()
            self._source = None
        self._cache_index = None
        self._cache_view = None

    def __enter__(self) -> "RangedScan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
