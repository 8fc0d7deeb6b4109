"""Behaviour of the shared LRU page buffer pool (`storage/bufferpool.py`).

Pinned here: strict LRU eviction order under a byte budget, page sharing
across scans (a backward scan hits the pages its forward sibling loaded,
and concurrent threads share one pool), generation-bump invalidation on
rebuild, and the cardinal rule that a pool changes *no* logical I/O counter
-- only the pool's own hit/miss/physical-read telemetry.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import StorageError
from repro.storage.bufferpool import BufferPool, default_buffer_pool, resolve_pager
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics, PagedReader, PagerConfig


def _write(path, data: bytes) -> str:
    with open(path, "wb") as handle:
        handle.write(data)
    return str(path)


# --------------------------------------------------------------------------- #
# LRU eviction
# --------------------------------------------------------------------------- #


def test_lru_eviction_order_is_strict(tmp_path):
    path = _write(tmp_path / "data.bin", bytes(range(64)))
    pool = BufferPool(capacity_bytes=3 * 16)  # room for exactly three 16-byte pages
    config = PagerConfig(pool=pool)
    reader = PagedReader(path, page_size=16, config=config)
    list(reader.records_forward(16))  # loads pages 0..3; page 0 evicted at 3
    assert pool.stats.misses == 4
    assert pool.stats.evictions == 1
    indexes = [key[-1] for key in pool.cached_keys()]
    assert indexes == [1, 2, 3]  # least recently used first

    # Touch page 1 (the current LRU victim candidate), then load page 0
    # again: page *2* must be the one evicted, not the refreshed page 1.
    generation = pool.generation_for(path)
    key_path = os.path.abspath(path)
    pool.read_page(key_path, generation, 16, 1, lambda: (_ for _ in ()).throw(AssertionError))
    with open(path, "rb") as handle:
        payload = handle.read(16)
    pool.read_page(key_path, generation, 16, 0, lambda: payload)
    indexes = [key[-1] for key in pool.cached_keys()]
    assert indexes == [3, 1, 0]
    assert pool.stats.evictions == 2


def test_capacity_zero_keeps_nothing(tmp_path):
    path = _write(tmp_path / "data.bin", bytes(32))
    pool = BufferPool(capacity_bytes=0)
    reader = PagedReader(path, page_size=8, config=PagerConfig(pool=pool))
    assert len(list(reader.records_forward(8))) == 4
    assert len(pool) == 0
    assert pool.stats.evictions == 4


def test_negative_capacity_rejected():
    with pytest.raises(StorageError):
        BufferPool(capacity_bytes=-1)


# --------------------------------------------------------------------------- #
# Cross-scan sharing
# --------------------------------------------------------------------------- #


def test_backward_scan_hits_pages_of_forward_scan(tmp_path):
    path = _write(tmp_path / "data.bin", bytes(range(200)))
    pool = BufferPool()
    config = PagerConfig(pool=pool)
    stats = IOStatistics()
    reader = PagedReader(path, page_size=64, stats=stats, config=config)
    list(reader.records_forward(4))
    assert pool.stats.misses == 4 and pool.stats.hits == 0
    list(reader.records_backward(4))
    # Every page of the backward scan came from memory...
    assert pool.stats.misses == 4 and pool.stats.hits == 4
    # ...yet the logical counters saw two full scans.
    assert stats.pages_read == 8
    assert stats.bytes_read == 400
    assert stats.seeks == 2
    # The pool's physical I/O is the four real loads, nothing more.
    assert pool.io.pages_read == 4
    assert pool.io.bytes_read == 200


def test_concurrent_scans_share_one_pool(tmp_path):
    base = str(tmp_path / "doc")
    build_database("<r>" + "<a/>" * 500 + "</r>", base, text_mode="ignore")
    pool = BufferPool()
    config = PagerConfig(pool=pool)
    # Warm the pool with one scan so the concurrent phase is deterministic
    # (racing first misses may each load; a warm page must hit for everyone).
    warm = ArbDatabase.open(base, pager=config)
    assert sum(1 for _ in warm.records_forward()) == 501
    loaded = pool.io.pages_read
    results = []

    def scan():
        db = ArbDatabase.open(base, pager=config)
        results.append(sum(1 for _ in db.records_forward()))

    threads = [threading.Thread(target=scan) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [501] * 6
    # Every page of every concurrent scan came from memory.
    assert pool.io.pages_read == loaded
    assert pool.stats.hits >= 6 * loaded


def test_readers_with_different_page_sizes_never_share_pages(tmp_path):
    """The page size is part of the key: different grids, different pages."""
    data = bytes(range(256))
    path = _write(tmp_path / "data.bin", data)
    pool = BufferPool()
    config = PagerConfig(pool=pool)
    small = PagedReader(path, page_size=16, config=config)
    large = PagedReader(path, page_size=64, config=config)
    records = [data[i : i + 8] for i in range(0, 256, 8)]
    assert [bytes(r) for r in small.records_forward(8)] == records
    assert [bytes(r) for r in large.records_forward(8)] == records
    assert [bytes(r) for r in large.records_backward(8)] == records[::-1]
    # 16 small pages + 4 large pages resident, disjoint key spaces.
    sizes = {key[2] for key in pool.cached_keys()}
    assert sizes == {16, 64}
    assert pool.stats.misses == 20


def test_pool_changes_no_logical_counter(tmp_path):
    base = str(tmp_path / "doc")
    build_database("<r><a/><b/><a/></r>", base, text_mode="ignore")
    plain, pooled = IOStatistics(), IOStatistics()
    db_plain = ArbDatabase.open(base)
    db_pooled = ArbDatabase.open(base, pager=PagerConfig(pool=BufferPool()))
    for _ in range(3):  # repeated scans: pool hits must not skew counters
        list(db_plain.records_forward(stats=plain))
        list(db_pooled.records_forward(stats=pooled))
    assert plain == pooled


# --------------------------------------------------------------------------- #
# Invalidation on rebuild
# --------------------------------------------------------------------------- #


def test_invalidate_bumps_generation_and_purges(tmp_path):
    path = _write(tmp_path / "data.bin", bytes(64))
    pool = BufferPool()
    reader = PagedReader(path, page_size=16, config=PagerConfig(pool=pool))
    list(reader.records_forward(16))
    assert len(pool) == 4
    before = pool.generation_for(path)
    epoch = pool.invalidate(path)
    assert epoch == 1
    assert pool.epoch_of(path) == 1
    assert len(pool) == 0
    assert pool.stats.invalidations == 1
    assert pool.generation_for(path) != before


def test_rebuild_through_builder_invalidates_default_pool(tmp_path):
    base = str(tmp_path / "doc")
    build_database("<r><a/></r>", base, text_mode="ignore")
    pool = default_buffer_pool()
    config = resolve_pager()
    assert config.pool is pool

    db = ArbDatabase.open(base, pager=config)
    first = [record.label_index for record in db.records_forward()]
    epoch_before = pool.epoch_of(base + ".arb")

    # Rebuild the same path with different content; the builder must bump
    # the generation so the cached pages can never be served again.
    build_database("<r><b/><b/></r>", base, text_mode="ignore")
    assert pool.epoch_of(base + ".arb") == epoch_before + 1

    db = ArbDatabase.open(base, pager=config)
    labels = [db.label_name(record) for record in db.records_forward()]
    assert labels == ["r", "b", "b"]
    assert len(first) == 2  # the old document really was different


def test_fingerprint_protects_private_pools(tmp_path):
    """A pool nobody told about a rebuild still never serves stale pages."""
    base = str(tmp_path / "doc")
    build_database("<r><a/></r>", base, text_mode="ignore")
    pool = BufferPool()  # private: the builder only bumps the default pool
    config = PagerConfig(pool=pool)
    db = ArbDatabase.open(base, pager=config)
    list(db.records_forward())
    build_database("<r><b/><b/></r>", base, text_mode="ignore")
    db = ArbDatabase.open(base, pager=config)
    labels = [db.label_name(record) for record in db.records_forward()]
    assert labels == ["r", "b", "b"]


def test_fingerprint_survives_same_size_same_mtime_rewrite(tmp_path):
    """The counter component closes the size/mtime collision hole.

    A rebuild that produces a file of the *same size* within the *same
    mtime tick* (forced here with os.utime; real filesystems with coarse
    timestamps do it on their own) used to collide with the cached
    generation on private pools.  The generation-pointer counter recorded
    in the ``.meta`` sidecar changes on every build and update, so the
    fingerprints differ even when size and mtime agree.
    """
    base = str(tmp_path / "doc")
    arb_path = base + ".arb"
    build_database("<r><a/><b/></r>", base, text_mode="ignore")
    mtime = os.stat(arb_path)
    pool = BufferPool()  # private: no epoch bump reaches it
    config = PagerConfig(pool=pool)
    db = ArbDatabase.open(base, pager=config)
    before = [db.label_name(record) for record in db.records_forward()]
    assert before == ["r", "a", "b"]
    generation_before = pool.generation_for(arb_path)

    # Same node count, same label-table size: the .arb is byte-compatible in
    # size.  Pin the mtime to the old value to simulate a one-tick rewrite.
    build_database("<r><b/><a/></r>", base, text_mode="ignore")
    os.utime(arb_path, ns=(mtime.st_atime_ns, mtime.st_mtime_ns))
    assert os.path.getsize(arb_path) == 3 * 2

    generation_after = pool.generation_for(arb_path)
    assert generation_after != generation_before  # the counter moved
    db = ArbDatabase.open(base, pager=config)
    labels = [db.label_name(record) for record in db.records_forward()]
    assert labels == ["r", "b", "a"]  # fresh pages, not the cached ones


def test_update_generations_never_collide_in_the_pool(tmp_path):
    """Each `.arb` generation is its own pool key space; old pages stay hot."""
    from repro.engine import Database
    from repro.storage.update import Relabel

    base = str(tmp_path / "doc")
    build_database("<r><a/><b/></r>", base, text_mode="ignore")
    pool = BufferPool()
    config = PagerConfig(pool=pool)
    pinned = ArbDatabase.open(base, pager=config)
    list(pinned.records_forward())
    loaded = pool.io.pages_read

    Database.open(base).apply(Relabel(1, "c"))

    # The pinned snapshot re-scans entirely from memory (its generation's
    # pages are still valid -- copy-on-write never touched its file)...
    assert [pinned.label_name(r) for r in pinned.records_forward()] == ["r", "a", "b"]
    assert pool.io.pages_read == loaded
    # ...while the new generation reads fresh pages under its own path key.
    current = ArbDatabase.open(base, pager=config)
    assert [current.label_name(r) for r in current.records_forward()] == ["r", "c", "b"]
    assert pool.io.pages_read > loaded
    paths = {key[0] for key in pool.cached_keys()}
    assert len(paths) == 2  # two generations, two disjoint key spaces


# --------------------------------------------------------------------------- #
# resolve_pager
# --------------------------------------------------------------------------- #


def test_resolve_pager_modes(monkeypatch):
    assert resolve_pager().pool is default_buffer_pool()
    assert resolve_pager(pooled=False).pool is None
    # The page-source knob is gone: a variable left in an environment is
    # ignored, and there is no mode to pass.
    monkeypatch.setenv("REPRO_PAGER_MODE", "mmap")
    assert resolve_pager() == PagerConfig(pool=default_buffer_pool())
    with pytest.raises(TypeError):
        resolve_pager("mmap")
    with pytest.raises(TypeError):
        PagerConfig(mode="mmap")
