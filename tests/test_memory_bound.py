"""The paper's memory bound: a disk batch holds a stack as deep as the tree.

Koch03 evaluates a query with two linear scans that keep, besides the
lazily built automaton, only a stack bounded by the depth of the tree and
the page being decoded.  Both loops are held to it with ``tracemalloc``:
the peak of a warm batch (automata already built, no selected nodes
collected) is the same for an 8 k- and a 64 k-node document of depth 3,
and it grows with depth on a document of about 2 k levels.  The pages are
4 KiB so both document sizes decode in spans of the same length.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.engine import Database
from repro.plan.cache import PlanCache
from tests.conftest import on_loop

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


def _warm_peak(tmp_path, name: str, document: str, loop: str):
    database = Database.build(document, str(tmp_path / name), page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    with on_loop(loop):
        database.query_many(BATCH, collect_selected_nodes=False)
        tracemalloc.start()
        try:
            batch = database.query_many(BATCH, collect_selected_nodes=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert batch.loop == loop
    return peak, batch


@pytest.mark.parametrize("loop", ["numpy", "python"])
def test_peak_memory_does_not_grow_with_the_document(tmp_path, loop):
    small, small_batch = _warm_peak(tmp_path, "small", _flat(8_000), loop)
    large, large_batch = _warm_peak(tmp_path, "large", _flat(64_000), loop)
    assert small_batch.phase1_stack_depth == large_batch.phase1_stack_depth
    assert abs(large - small) < SIZE_SLACK, (small, large)


@pytest.mark.parametrize("loop", ["numpy", "python"])
def test_peak_memory_grows_with_depth(tmp_path, loop):
    flat, flat_batch = _warm_peak(tmp_path, "flat", _flat(8_000), loop)
    deep, deep_batch = _warm_peak(tmp_path, "deep", _deep(LEVELS, 8_000), loop)
    assert flat_batch.phase1_stack_depth <= 3
    assert deep_batch.phase1_stack_depth >= LEVELS
    # The scan stack holds at least one pointer per level; half of one is
    # the margin left to the allocator.
    assert deep - flat > 4 * LEVELS, (flat, deep)
