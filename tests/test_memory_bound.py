"""The paper's memory bound: a disk batch holds a stack as deep as the tree.

Koch03 evaluates a query with two linear scans that keep, besides the
lazily built automaton, only a stack bounded by the depth of the tree and
the page being decoded.  The disk loop is held to it with ``tracemalloc``:
the peak of a warm batch (automata already built, no selected nodes
collected) is the same for an 8 k- and a 64 k-node document of depth 3,
and it grows with depth on a document of about 2 k levels.  The pages are
4 KiB so both document sizes decode in spans of the same length; the size
bound is checked at the default record size and at one without an array
typecode.
"""

from __future__ import annotations

import tracemalloc

from repro.engine import Database
from repro.plan.cache import PlanCache
from repro.storage.build import build_database
from repro.storage.records import DEFAULT_RECORD_SIZE

PAGE_SIZE = 4096

BATCH = [
    "QUERY :- V.Label[item];",
    "QUERY :- V.Label[b];",
    "QUERY :- V.-HasFirstChild;",
]

#: How far apart the peaks of two documents of the same depth may be.
SIZE_SLACK = 256 * 1024

LEVELS = 2000


def _flat(n_nodes: int) -> str:
    """Depth 3: a root over sections of two leaves."""
    return "<r>" + "<s><item/><b/></s>" * (n_nodes // 3) + "</r>"


def _deep(levels: int, n_nodes: int) -> str:
    """``levels`` nested elements, each followed by a sibling leaf, padded
    with flat sections to ``n_nodes``: both scan stacks reach ``levels``."""
    padding = "<s><item/><b/></s>" * ((n_nodes - 2 * levels - 1) // 3)
    return "<r>" + padding + "<a>" * levels + "</a><b/>" * levels + "</r>"


def _warm_peak(tmp_path, name: str, document: str, record_size: int = DEFAULT_RECORD_SIZE):
    base = str(tmp_path / name)
    build_database(document, base, record_size=record_size, page_size=PAGE_SIZE)
    database = Database.open(base, page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    database.query_many(BATCH, collect_selected_nodes=False)
    tracemalloc.start()
    try:
        batch = database.query_many(BATCH, collect_selected_nodes=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, batch


def test_peak_memory_does_not_grow_with_the_document(tmp_path):
    small, small_batch = _warm_peak(tmp_path, "small", _flat(8_000))
    large, large_batch = _warm_peak(tmp_path, "large", _flat(64_000))
    assert small_batch.phase1_stack_depth == large_batch.phase1_stack_depth
    assert abs(large - small) < SIZE_SLACK, (small, large)


def test_peak_memory_does_not_grow_with_the_document_without_a_typecode(tmp_path):
    """3-byte records have no array typecode and decode one span at a time
    through ``int.from_bytes``: that span, not the document, bounds the peak."""
    small, small_batch = _warm_peak(tmp_path, "small", _flat(8_000), record_size=3)
    large, large_batch = _warm_peak(tmp_path, "large", _flat(64_000), record_size=3)
    assert small_batch.phase1_stack_depth == large_batch.phase1_stack_depth
    assert abs(large - small) < SIZE_SLACK, (small, large)


def test_peak_memory_grows_with_depth(tmp_path):
    flat, flat_batch = _warm_peak(tmp_path, "flat", _flat(8_000))
    deep, deep_batch = _warm_peak(tmp_path, "deep", _deep(LEVELS, 8_000))
    assert flat_batch.phase1_stack_depth <= 3
    assert deep_batch.phase1_stack_depth >= LEVELS
    # The scan stack holds at least one pointer per level; half of one is
    # the margin left to the allocator.
    assert deep - flat > 4 * LEVELS, (flat, deep)
