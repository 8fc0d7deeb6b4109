"""A process-wide LRU page buffer pool shared by concurrent scans.

The paper's evaluation algorithms touch the data with a constant number of
*linear scans*; when many of those scans run concurrently over the same
files -- the query service's coalesced batches, collection shards, repeated
point queries -- they re-read the same pages over and over.  The
:class:`BufferPool` keeps recently read pages in memory so hot pages are
served without touching the file again, while the *logical* access pattern
(the :class:`~repro.storage.paging.IOStatistics` counters of every scan)
stays byte-for-byte identical: a pool hit still counts as one page read,
because the counters are the paper's verifiable artifact -- the pool may
only change wall-clock time, never the reported access pattern.  The pool's
own physical I/O and hit/miss behaviour are reported separately
(:attr:`BufferPool.stats` / :attr:`BufferPool.io`).

Pages are keyed by ``(path, generation, page_size, page_index)`` -- the
page size is part of the key because the grid it induces is, and two
readers with different page sizes must never see each other's slices.  The
*generation* is the reader's ``(creation counter, size, mtime_ns)``
(:attr:`~repro.storage.paging.PagedReader.key`): data files are written
once, and every build and commit records a strictly larger creation counter
in the generation's ``.meta`` (see :mod:`repro.storage.generations`), so a
rewritten file's pages are unreachable under the old key and nothing ever
has to invalidate the pool.

Eviction is strict LRU over a byte budget; the pool is thread-safe (scans on
any thread share it) and page loads run outside the lock so concurrent
misses never serialise their disk reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.paging import IOStatistics, PagerConfig

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "DEFAULT_POOL_CAPACITY",
    "default_buffer_pool",
    "resolve_pager",
]

#: Default byte budget of a pool (64 MiB, i.e. 1024 default-size pages).
DEFAULT_POOL_CAPACITY = 64 * 1024 * 1024

#: A page key: ``(absolute path, generation, page size, page index)``.
PageKey = tuple[str, tuple, int, int]


@dataclass
class BufferPoolStats:
    """Hit/miss/eviction counters of one :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses


class BufferPool:
    """An LRU cache of file pages, shared by every scan that is handed it.

    ``capacity_bytes`` bounds the cached payload; the least recently used
    pages are dropped first.  All methods are thread-safe.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_POOL_CAPACITY):
        if capacity_bytes < 0:
            raise StorageError("a BufferPool capacity cannot be negative")
        self.capacity_bytes = capacity_bytes
        self.stats = BufferPoolStats()
        #: Physical I/O performed by page loaders on behalf of this pool
        #: (what actually hit the disk, as opposed to the per-scan logical
        #: counters).
        self.io = IOStatistics()
        self._lock = threading.RLock()
        self._pages: OrderedDict[PageKey, bytes] = OrderedDict()
        self._cached_bytes = 0

    # ------------------------------------------------------------------ #
    # Pages
    # ------------------------------------------------------------------ #

    def read_page(self, path: str, generation: tuple, page_size: int, index: int, loader) -> bytes:
        """The page's payload, from memory if cached, else via ``loader()``.

        ``loader`` must return the page's bytes; it runs outside the pool
        lock so concurrent misses on different pages read in parallel.  The
        pool's :attr:`io` counters record the physical read.
        """
        key = (path, generation, page_size, index)
        with self._lock:
            data = self._pages.get(key)
            if data is not None:
                self._pages.move_to_end(key)
                self.stats.hits += 1
                return data
            self.stats.misses += 1
        data = loader()
        with self._lock:
            self.io.bytes_read += len(data)
            self.io.pages_read += 1
            if key not in self._pages:
                self._pages[key] = data
                self._cached_bytes += len(data)
                self._evict_over_capacity()
        return data

    def _evict_over_capacity(self) -> None:
        while self._cached_bytes > self.capacity_bytes and self._pages:
            _, payload = self._pages.popitem(last=False)
            self._cached_bytes -= len(payload)
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._cached_bytes

    def cached_keys(self) -> list[PageKey]:
        """The resident page keys, least recently used first."""
        with self._lock:
            return list(self._pages)

    def clear(self) -> None:
        with self._lock:
            self._pages.clear()
            self._cached_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self)} pages, {self.cached_bytes}/{self.capacity_bytes} bytes, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )


# ---------------------------------------------------------------------- #
# The process-wide default pool
# ---------------------------------------------------------------------- #

_default_pool: BufferPool | None = None
_default_pool_lock = threading.Lock()


def default_buffer_pool() -> BufferPool:
    """The lazily created process-wide pool shared by pooled scans."""
    global _default_pool
    if _default_pool is None:
        with _default_pool_lock:
            if _default_pool is None:
                _default_pool = BufferPool()
    return _default_pool


def resolve_pager(*, pooled: bool = True) -> PagerConfig:
    """The :class:`~repro.storage.paging.PagerConfig` of a multi-scan entry
    point (collection shards, the query service, the CLI): scans share the
    process-wide :func:`default_buffer_pool` unless ``pooled`` is false."""
    return PagerConfig(pool=default_buffer_pool() if pooled else None)
