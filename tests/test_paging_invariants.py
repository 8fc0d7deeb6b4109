"""Invariants of the paged sequential I/O layer (`storage/paging.py`).

Round-trips of forward/backward record streams at awkward geometries --
record sizes that do not divide the page size (so records straddle page
boundaries), empty files, single-record files -- plus the access-pattern
invariant the whole storage model rests on: a pure sequential scan
repositions the file exactly once (to its start or end) and never seeks
again mid-scan.

The same round-trip and accounting cases then run over the *range layout*
as one more parameter (the walk every disk query takes: a
:class:`~repro.storage.paging.RangedScan` over one range, over ranges with
page-jumping gaps, over adjacent ranges sharing a page, over a zero-record
range), with and without a buffer pool, against a ``bytes``-slicing oracle.
"""

from __future__ import annotations

import contextlib
import os
import struct

import pytest

from repro.engine import Database
from repro.errors import StorageError
from repro.storage.bufferpool import BufferPool
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.paging import (
    BackwardPagedWriter,
    IOStatistics,
    PagedReader,
    PagedWriter,
    PagerConfig,
)
from tests.conftest import sidecars_hidden

#: Geometries where records straddle page boundaries: (record_size, page_size,
#: n_records).  3/8 puts a boundary inside every other record; 5/16 and 7/32
#: drift the straddle point across the file; 4/6 has pages smaller than two
#: records; 13/64 is a prime size against a power-of-two page.
ODD_GEOMETRIES = [
    (3, 8, 11),
    (5, 16, 10),
    (7, 32, 23),
    (4, 6, 9),
    (13, 64, 17),
]


def _records(record_size: int, count: int) -> list[bytes]:
    """Distinct, position-identifying records of the given size."""
    return [
        bytes((index + offset) % 256 for offset in range(record_size))
        for index in range(count)
    ]


def _write_file(path: str, records: list[bytes], page_size: int) -> IOStatistics:
    stats = IOStatistics()
    with PagedWriter(str(path), page_size, stats=stats) as writer:
        for record in records:
            writer.write(record)
    return stats


# --------------------------------------------------------------------------- #
# Round-trips at odd geometries
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("record_size,page_size,count", ODD_GEOMETRIES)
def test_forward_backward_round_trip_across_page_boundaries(
    tmp_path, record_size, page_size, count
):
    path = tmp_path / "records.bin"
    records = _records(record_size, count)
    _write_file(path, records, page_size)
    assert os.path.getsize(path) == record_size * count

    reader = PagedReader(str(path), page_size)
    assert list(reader.records_forward(record_size)) == records
    assert list(reader.records_backward(record_size)) == records[::-1]


@pytest.mark.parametrize("record_size,page_size,count", ODD_GEOMETRIES)
def test_backward_writer_round_trip(tmp_path, record_size, page_size, count):
    """BackwardPagedWriter receives reverse order, produces the forward file."""
    path = tmp_path / "backward.bin"
    records = _records(record_size, count)
    stats = IOStatistics()
    with BackwardPagedWriter(str(path), record_size * count, page_size,
                             stats=stats) as writer:
        for record in reversed(records):
            writer.write(record)
    reader = PagedReader(str(path), page_size)
    assert list(reader.records_forward(record_size)) == records
    assert stats.bytes_written == record_size * count


# --------------------------------------------------------------------------- #
# Degenerate files
# --------------------------------------------------------------------------- #


def test_empty_file_yields_no_records_either_direction(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    reader = PagedReader(str(path), page_size=16)
    assert list(reader.records_forward(4)) == []
    assert list(reader.records_backward(4)) == []
    assert reader.stats.pages_read == 0
    assert reader.stats.bytes_read == 0
    # A scan that fetches no page repositions nothing: the ranged rule.
    assert reader.stats.seeks == 0


def test_single_record_file_round_trips(tmp_path):
    path = tmp_path / "single.bin"
    record = b"\x01\x02\x03"
    path.write_bytes(record)
    reader = PagedReader(str(path), page_size=64)
    assert list(reader.records_forward(3)) == [record]
    assert list(reader.records_backward(3)) == [record]
    # One page each way; the record is far smaller than the page.
    assert reader.stats.pages_read == 2
    assert reader.stats.bytes_read == 2 * len(record)


def test_single_record_spanning_multiple_pages(tmp_path):
    """A record larger than the page is stitched from several page reads."""
    path = tmp_path / "large.bin"
    record = bytes(range(20))
    path.write_bytes(record)
    reader = PagedReader(str(path), page_size=8)
    assert list(reader.records_forward(20)) == [record]
    assert reader.stats.pages_read == 3  # ceil(20 / 8)
    # Backward page reads are record-aligned, so one oversized read suffices.
    assert list(reader.records_backward(20)) == [record]


def test_zero_byte_backward_writer(tmp_path):
    path = tmp_path / "zero.bin"
    with BackwardPagedWriter(str(path), total_size=0, page_size=8):
        pass
    assert os.path.getsize(path) == 0


# --------------------------------------------------------------------------- #
# Access-pattern invariants
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("record_size,page_size,count", ODD_GEOMETRIES)
def test_sequential_scans_never_seek_mid_scan(tmp_path, record_size, page_size, count):
    """A linear scan costs exactly one positioning seek, zero thereafter.

    The reader counts one seek per *scan start* (the reposition to the start
    or end of the file); a pure sequential scan must add none beyond that,
    whatever the record/page geometry -- i.e. ``seeks - n_scans == 0``.
    """
    path = tmp_path / "scan.bin"
    _write_file(path, _records(record_size, count), page_size)

    stats = IOStatistics()
    reader = PagedReader(str(path), page_size, stats=stats)
    n_scans = 0
    for _ in range(2):
        list(reader.records_forward(record_size))
        n_scans += 1
        assert stats.seeks == n_scans
        list(reader.records_backward(record_size))
        n_scans += 1
        assert stats.seeks == n_scans
    # Four full scans touched every byte four times, with zero extra seeks.
    assert stats.seeks - n_scans == 0
    assert stats.bytes_read == 4 * record_size * count


def test_page_accounting_matches_geometry(tmp_path):
    record_size, page_size, count = 3, 8, 11  # 33 bytes -> 5 pages of 8
    path = tmp_path / "pages.bin"
    write_stats = _write_file(path, _records(record_size, count), page_size)
    # The writer flushed full pages plus one final partial page.
    assert write_stats.pages_written == 5
    assert write_stats.bytes_written == record_size * count

    stats = IOStatistics()
    reader = PagedReader(str(path), page_size, stats=stats)
    list(reader.records_forward(record_size))
    assert stats.pages_read == 5  # ceil(33 / 8)
    before = stats.pages_read
    list(reader.records_backward(record_size))
    # Backward reads are record-aligned (page rounded down to a multiple of
    # the record size), so the backward scan needs a few more, smaller reads.
    assert stats.bytes_read == 2 * record_size * count
    assert stats.pages_read >= before + 5


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "truncated.bin"
    path.write_bytes(b"\x00" * 10)  # not a multiple of record_size 4
    reader = PagedReader(str(path), page_size=8)
    # Forward scan with an explicit count beyond the file must fail loudly.
    with pytest.raises(StorageError):
        list(reader.records_forward(4, count=3))
    # Without a count, only whole records are yielded.
    assert len(list(PagedReader(str(path), 8).records_forward(4))) == 2
    assert len(list(PagedReader(str(path), 8).records_backward(4))) == 2


def test_missing_file_raises():
    with pytest.raises(StorageError):
        PagedReader("/nonexistent/path.bin")


def test_invalid_record_size_raises(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(b"\x00" * 8)
    reader = PagedReader(str(path), page_size=8)
    with pytest.raises(StorageError):
        list(reader.records_forward(0))
    with pytest.raises(StorageError):
        list(reader.records_backward(-1))


def test_backward_writer_overflow_and_underflow(tmp_path):
    with pytest.raises(StorageError):
        with BackwardPagedWriter(str(tmp_path / "o.bin"), total_size=4, page_size=4) as w:
            w.write(b"\x00" * 8)
    with pytest.raises(StorageError):
        with BackwardPagedWriter(str(tmp_path / "u.bin"), total_size=8, page_size=4) as w:
            w.write(b"\x00" * 4)


# --------------------------------------------------------------------------- #
# The walk queries actually use: ranged scans, by range layout
# --------------------------------------------------------------------------- #

#: (record_size, page_size) of the ranged cases: the odd geometries above,
#: an aligned one, and records larger than a page.
RANGED_GEOMETRIES = [(r, p) for r, p, _ in ODD_GEOMETRIES] + [(2, 64), (20, 8)]

LAYOUTS = ("whole", "gaps", "adjacent", "empty")
DECODERS = ("records", "unpack", "spans")


def _layout(layout: str, record_size: int, page_size: int) -> tuple[int, list[tuple[int, int]]]:
    """``(n_records, ascending (start, count) ranges)`` of one range layout."""
    gap = -(-3 * page_size // record_size)  # records covering >= 3 pages: a jump
    n = 11 + 2 * gap
    if layout == "whole":  # one range covering the file: the plain scan
        return n, [(0, n)]
    if layout == "gaps":  # three ranges, whole pages skipped between them
        return n, [(0, 3), (3 + gap, 3), (6 + 2 * gap, 3)]
    if layout == "adjacent":  # two ranges meeting inside a page
        split = next(k for k in range(1, n) if k * record_size % page_size)
        return n, [(0, split), (split, 4)]
    return n, [(0, 2), (7, 0), (n - 2, 2)]  # a zero-record range on the way


def _oracle(data: bytes, record_size: int, page_size: int, ranges, backward: bool):
    """Records per visited range, fetched page sequence, seeks and bytes --
    from plain ``bytes`` slicing and page arithmetic, no reader involved."""
    records, fetched = [], []
    for start, count in reversed(ranges) if backward else ranges:
        chunk = [data[i * record_size:(i + 1) * record_size] for i in range(start, start + count)]
        records.append(chunk[::-1] if backward else chunk)
        if count:
            pages = list(range(start * record_size // page_size,
                               ((start + count) * record_size - 1) // page_size + 1))
            # Adjacent ranges share their boundary page through the one-page cache.
            fetched += [p for p in (pages[::-1] if backward else pages) if fetched[-1:] != [p]]
    step = -1 if backward else 1
    seeks = sum(1 for i, page in enumerate(fetched) if i == 0 or page != fetched[i - 1] + step)
    bytes_read = sum(min(page_size, len(data) - page * page_size) for page in fetched)
    return records, fetched, seeks, bytes_read


def _decode(scan, decoder: str, record_size: int, start: int, count: int, backward: bool):
    """One range through one of the scan's three decoders, as ``bytes`` records."""
    if decoder == "records":
        return [bytes(record) for record in scan.records_range(record_size, start, count)]
    if decoder == "unpack":
        fmt = struct.Struct(f"{record_size}s")
        return [value for (value,) in scan.unpack_range(fmt, start, count)]
    records = []
    for view, at, n in scan.spans_range(record_size, start, count):
        if view is None:  # a straddler, assembled
            records.append(at)
            continue
        span = [bytes(view[at + i * record_size:at + (i + 1) * record_size]) for i in range(n)]
        records += span[::-1] if backward else span
    return records


def _ranged_file(tmp_path, record_size: int, page_size: int, n: int) -> tuple[str, bytes]:
    path = tmp_path / "ranged.bin"
    _write_file(path, _records(record_size, n), page_size)
    return str(path), path.read_bytes()


@pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("record_size,page_size", RANGED_GEOMETRIES)
def test_ranged_scan_matches_the_slicing_oracle(
    tmp_path, record_size, page_size, layout, backward, pool
):
    """Identical records, every fetched page counted exactly once,
    ``seeks == 1 + jumps in the fetched page sequence`` -- per decoder, with
    and without a pool (so pooled == unpooled by both equalling the oracle)."""
    n, ranges = _layout(layout, record_size, page_size)
    path, data = _ranged_file(tmp_path, record_size, page_size, n)
    records, fetched, seeks, bytes_read = _oracle(data, record_size, page_size, ranges, backward)
    if layout == "gaps":
        assert seeks == 3  # the layout really jumps pages, twice
    if layout == "adjacent":
        assert seeks == 1 and len(fetched) == len(set(fetched))  # shared page fetched once

    for decoder in DECODERS:
        seen: list[int] = []  # the guard runs once per real fetch: the fetch log
        shared = BufferPool() if pool else None
        config = PagerConfig(pool=shared, page_filter=lambda page: seen.append(page) or True)
        stats = IOStatistics()
        reader = PagedReader(path, page_size, stats=stats, config=config)
        with reader.ranged_scan(backward=backward) as scan:
            got = [
                _decode(scan, decoder, record_size, start, count, backward)
                for start, count in (reversed(ranges) if backward else ranges)
            ]
        assert got == records, decoder
        assert seen == fetched, decoder
        assert (stats.pages_read, stats.seeks, stats.bytes_read) == (
            len(fetched), seeks, bytes_read
        ), decoder
        if shared is not None:
            assert shared.stats.requests == shared.io.pages_read == len(fetched)


@pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("record_size,page_size", RANGED_GEOMETRIES)
def test_page_filter_rejection_raises_without_materialising_the_page(
    tmp_path, record_size, page_size, backward, pool
):
    n, ranges = _layout("gaps", record_size, page_size)
    path, data = _ranged_file(tmp_path, record_size, page_size, n)
    _, fetched, _, _ = _oracle(data, record_size, page_size, ranges, backward)
    allowed, rejected = fetched[:-1], fetched[-1]
    shared = BufferPool() if pool else None
    stats = IOStatistics()
    reader = PagedReader(path, page_size, stats=stats,
                         config=PagerConfig(pool=shared, page_filter=allowed.__contains__))
    with reader.ranged_scan(backward=backward) as scan, pytest.raises(StorageError, match="page filter"):
        for start, count in reversed(ranges) if backward else ranges:
            list(scan.records_range(record_size, start, count))
    # Everything before the guarded page was read and counted; the page itself never was.
    assert stats.pages_read == len(allowed)
    assert stats.bytes_read == sum(min(page_size, len(data) - p * page_size) for p in allowed)
    if shared is not None:
        assert shared.stats.requests == len(allowed)
        assert rejected not in [key[-1] for key in shared.cached_keys()]


def test_a_scan_that_fetches_nothing_counts_nothing(tmp_path):
    path, _ = _ranged_file(tmp_path, 4, 16, 10)
    stats = IOStatistics()
    for backward in (False, True):
        with PagedReader(path, 16, stats=stats).ranged_scan(backward=backward) as scan:
            assert list(scan.records_range(4, 5, 0)) == []
            assert list(scan.spans_range(4, 0, 0)) == []
    assert list(PagedReader(path, 16, stats=stats).records_forward(4, count=0)) == []
    assert stats == IOStatistics()


def test_a_range_past_the_end_of_the_file_raises(tmp_path):
    path, _ = _ranged_file(tmp_path, 4, 16, 10)
    for backward in (False, True):
        with PagedReader(path, 16).ranged_scan(backward=backward) as scan:
            with pytest.raises(StorageError):
                list(scan.records_range(4, 8, 3))
    # The whole-file streams say how many records they found instead.
    with pytest.raises(StorageError, match="expected 11 records of 4 bytes, got 10"):
        list(PagedReader(path, 16).records_backward(4, count=11))


# --------------------------------------------------------------------------- #
# The same walk under an `.arb` database and under Database.query_many
# --------------------------------------------------------------------------- #

SECTIONED = "<doc>" + "".join(
    f"<s{i:02d}>" + "<leaf/>" * 40 + f"</s{i:02d}>" for i in range(12)
) + "</doc>"


def _pager(pool: bool) -> PagerConfig:
    return PagerConfig(pool=BufferPool() if pool else None)


@pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_ranged_records_and_spans_of_an_arb_database(tmp_path, layout, backward, pool):
    """``ranged_records`` / ``ranged_spans`` (what the two kernels read
    through) against the database's own full scan and the file's bytes."""
    base = str(tmp_path / "doc")
    build_database(SECTIONED, base, text_mode="ignore")
    page_size = 48
    db = ArbDatabase.open(base, page_size=page_size, pager=_pager(pool))
    everything = list(db.records_forward())
    assert everything == list(db.records_backward())[::-1] and len(everything) == db.n_nodes
    with open(db.arb_path, "rb") as handle:
        data = handle.read()
    n, ranges = _layout(layout, db.record_size, page_size)
    assert n <= db.n_nodes
    raw, fetched, seeks, bytes_read = _oracle(data, db.record_size, page_size, ranges, backward)
    visit = list(reversed(ranges)) if backward else ranges

    records_io, spans_io = IOStatistics(), IOStatistics()
    with db.ranged_records(backward=backward, stats=records_io) as scanner:
        got = [list(scanner.range(start, count)) for start, count in visit]
    assert got == [
        everything[start:start + count][::-1] if backward else everything[start:start + count]
        for start, count in visit
    ]
    scan = db.ranged_spans(backward=backward, stats=spans_io)
    try:
        got = [_decode(scan, "spans", db.record_size, start, count, backward)
               for start, count in visit]
    finally:
        scan.close()
    assert got == raw
    for io in (records_io, spans_io):
        assert (io.pages_read, io.seeks, io.bytes_read) == (len(fetched), seeks, bytes_read)


def test_query_many_reads_the_same_ranges_pooled_and_unpooled(tmp_path):
    """Through the whole engine: a selective batch really jumps pages, and
    its answers and counters do not depend on the pool or on the index."""
    base = str(tmp_path / "doc")
    build_database(SECTIONED, base, text_mode="ignore", page_size=64)
    queries = ["QUERY :- V.Label[s02];", "QUERY :- V.Label[s03];"]
    outcomes = []
    for pool in (False, True):
        database = Database.open(base, pager=_pager(pool), page_size=64)
        for sidecar in (contextlib.nullcontext(), sidecars_hidden(tmp_path)):
            with sidecar:
                batch = database.query_many(queries, engine="disk", temp_dir=str(tmp_path))
            outcomes.append(([r.selected for r in batch.results], batch.arb_io, batch.state_io))
    (indexed, indexed_io, indexed_state), (full, full_io, _) = outcomes[:2]
    assert indexed == full and sum(len(s) for r in indexed for s in r.values()) == 2
    assert indexed_io.pages_read < full_io.pages_read and full_io.seeks == 2
    assert outcomes[2:] == outcomes[:2], "pooled differs from unpooled"


# --------------------------------------------------------------------------- #
# Page-size validation
# --------------------------------------------------------------------------- #

BAD_PAGE_SIZES = [0, -1, True, 1.5, "64", None]


@pytest.mark.parametrize("page_size", BAD_PAGE_SIZES, ids=repr)
def test_bad_page_size_is_refused_by_every_reader_and_writer(tmp_path, page_size):
    path = str(tmp_path / "data.bin")
    with pytest.raises(StorageError, match="page_size"):
        PagedWriter(path, page_size)
    with pytest.raises(StorageError, match="page_size"):
        BackwardPagedWriter(path, 8, page_size)
    assert os.listdir(tmp_path) == []  # refused before the file was created
    with open(path, "wb") as handle:
        handle.write(bytes(8))
    with pytest.raises(StorageError, match="page_size"):
        PagedReader(path, page_size)


@pytest.mark.timeout(10)  # page_size=0 used to flush empty pages forever
@pytest.mark.parametrize("page_size", BAD_PAGE_SIZES, ids=repr)
def test_bad_page_size_is_refused_before_a_build_creates_any_file(tmp_path, page_size):
    base = str(tmp_path / "doc")
    with pytest.raises(StorageError, match="page_size"):
        build_database("<r><a/><a/></r>", base, page_size=page_size)
    with pytest.raises(StorageError, match="page_size"):
        Database.build("<r><a/><a/></r>", base, page_size=page_size)
    assert os.listdir(tmp_path) == []  # no .arb / .evt / .lab / .meta left behind


@pytest.mark.parametrize("page_size", BAD_PAGE_SIZES, ids=repr)
def test_bad_page_size_is_refused_at_open(tmp_path, page_size):
    base = str(tmp_path / "doc")
    build_database("<r><a/><a/></r>", base)
    files = sorted(os.listdir(tmp_path))
    with pytest.raises(StorageError, match="page_size"):
        ArbDatabase.open(base, page_size=page_size)
    with pytest.raises(StorageError, match="page_size"):
        Database.open(base, page_size=page_size)
    assert sorted(os.listdir(tmp_path)) == files
