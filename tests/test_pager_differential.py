"""Differential suite: every pager configuration is the same scan.

Plain reads and reads through a buffer pool are two materialisations of one
logical access pattern; the paper's verifiable artifact is the pattern, not
the plumbing.  These tests pin that contract over generated documents and
adversarial file geometries:

* byte-identical record streams in both directions,
* **identical** :class:`~repro.storage.paging.IOStatistics` (bytes, pages,
  seeks) with and without a pool and whatever the pool's hit rate,
* identical query answers and I/O through the full disk engine.

(The multi-range walk every disk query takes has the same pooled ==
unpooled leg in ``tests/test_paging_invariants.py``.)
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.storage.bufferpool import BufferPool
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics, PagedReader, PagerConfig
from tests.strategies import unranked_trees

#: The two materialisations under test; "pooled" gets a fresh pool per use.
MODES = ("buffered", "pooled")

#: Geometries where records straddle page boundaries (see
#: tests/test_paging_invariants.py for the rationale of each shape).
ODD_GEOMETRIES = [
    (3, 8),
    (5, 16),
    (7, 32),
    (4, 6),
    (13, 64),
    (2, 64),
    (20, 8),  # records larger than a page
]

QUERIES = [
    "QUERY :- V.Label[a];",
    "Q :- V.Root; QUERY :- Q.FirstChild;",
]


def _config(mode: str) -> PagerConfig:
    return PagerConfig(pool=BufferPool() if mode == "pooled" else None)


def _scan_file(path: str, record_size: int, page_size: int, mode: str):
    stats = IOStatistics()
    reader = PagedReader(path, page_size, stats=stats, config=_config(mode))
    forward = [bytes(record) for record in reader.records_forward(record_size)]
    backward = [bytes(record) for record in reader.records_backward(record_size)]
    return forward, backward, stats


# --------------------------------------------------------------------------- #
# Raw paged scans over adversarial geometries
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("record_size,page_size", ODD_GEOMETRIES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(min_size=0, max_size=600))
def test_modes_agree_on_raw_files(tmp_path, record_size, page_size, data):
    path = os.path.join(str(tmp_path), f"raw-{record_size}-{page_size}-{len(data)}.bin")
    with open(path, "wb") as handle:
        handle.write(data)
    reference = None
    for mode in MODES:
        outcome = _scan_file(path, record_size, page_size, mode)
        if reference is None:
            reference = outcome
            # Sanity: the streams really are the file's records.
            usable = len(data) - len(data) % record_size
            expected = [data[i : i + record_size] for i in range(0, usable, record_size)]
            assert outcome[0] == expected
            assert outcome[1] == expected[::-1]
        else:
            assert outcome[0] == reference[0], mode
            assert outcome[1] == reference[1], mode
            assert outcome[2] == reference[2], f"IOStatistics differ in mode {mode}"


@pytest.mark.parametrize("mode", MODES)
def test_empty_file_all_modes(tmp_path, mode):
    path = str(tmp_path / "empty.bin")
    open(path, "wb").close()
    stats = IOStatistics()
    reader = PagedReader(path, page_size=16, stats=stats, config=_config(mode))
    assert list(reader.records_forward(4)) == []
    assert list(reader.records_backward(4)) == []
    assert stats.pages_read == 0
    assert stats.bytes_read == 0


@pytest.mark.parametrize("mode", MODES)
def test_single_record_file_all_modes(tmp_path, mode):
    path = str(tmp_path / "single.bin")
    record = b"\x01\x02\x03"
    with open(path, "wb") as handle:
        handle.write(record)
    stats = IOStatistics()
    reader = PagedReader(path, page_size=64, stats=stats, config=_config(mode))
    assert [bytes(r) for r in reader.records_forward(3)] == [record]
    assert [bytes(r) for r in reader.records_backward(3)] == [record]
    assert stats.pages_read == 2
    assert stats.bytes_read == 2 * len(record)


# --------------------------------------------------------------------------- #
# Generated documents through the .arb layer
# --------------------------------------------------------------------------- #


@settings(max_examples=20, deadline=None)
@given(tree=unranked_trees(max_leaves=12))
def test_modes_agree_on_arb_databases(tree):
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "doc")
        build_database(tree, base)
        outcomes = {}
        for mode in MODES:
            db = ArbDatabase.open(base, pager=_config(mode))
            stats = IOStatistics()
            forward = list(db.records_forward(stats=stats))
            backward = list(db.records_backward(stats=stats))
            outcomes[mode] = (forward, backward, stats)
        reference = outcomes["buffered"]
        assert reference[0] == reference[1][::-1]
        pooled = outcomes["pooled"]
        assert pooled[0] == reference[0]
        assert pooled[1] == reference[1]
        assert pooled[2] == reference[2], "IOStatistics must not depend on the pager"


@settings(max_examples=10, deadline=None)
@given(tree=unranked_trees(max_leaves=12))
def test_modes_agree_on_disk_queries(tree):
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "doc")
        build_database(tree, base)
        per_mode = {}
        for mode in MODES:
            database = Database.open(base, pager=_config(mode))
            batch = database.query_many(QUERIES, engine="disk", temp_dir=tmp)
            per_mode[mode] = (
                [result.selected for result in batch.results],
                [result.counts for result in batch.results],
                batch.arb_io,
                batch.state_io,
            )
        reference = per_mode["buffered"]
        selected, counts, arb_io, state_io = per_mode["pooled"]
        assert selected == reference[0]
        assert counts == reference[1]
        assert arb_io == reference[2], ".arb I/O differs through the pool"
        assert state_io == reference[3], "state-file I/O differs through the pool"


@pytest.mark.parametrize("mode", MODES)
def test_odd_page_geometry_on_arb(tmp_path, mode):
    """A page size that the record size does not divide still round-trips."""
    document = "<r>" + "<a><b/><b/></a>" * 9 + "</r>"
    base = str(tmp_path / "odd")
    build_database(document, base, text_mode="ignore")
    db = ArbDatabase.open(base, page_size=7, pager=_config(mode))
    records = list(db.records_forward())
    assert len(records) == db.n_nodes
    assert records == list(db.records_backward())[::-1]
    assert db.to_binary_tree().labels[0] == "r"
