"""Differential properties of the vectorised lockstep kernel.

The numpy kernel (:mod:`repro.plan.kernel`) is a pure accelerator: for any
database and any query batch it must produce exactly what the pure-Python
lockstep loop produces -- the same selected nodes, the same evaluation
statistics (transition and state counts; wall-clock excepted) and the same
I/O counters, byte for byte.  These properties are enforced the way
pooled==unpooled and indexed==full-scan are enforced elsewhere:

* **random documents and batches** -- cold and warm plan caches, with and
  without the page-skipping sidecar;
* **post-update generations** -- the spliced `.arb` of a relabel/insert/
  delete round evaluates identically on both kernels;
* **odd geometries** -- single-record files, pages that do not divide the
  record size (records straddling page boundaries), wide and deep trees;
* **fallback honesty** -- unmemoised plans and an interpreter without numpy
  run the reference loop, and the result's ``loop`` field says so; the
  kernel's one bound (distinct composite states, never nodes) and a corrupt
  `.arb` raise a named :class:`EvaluationError` on either loop.

No argument selects a side.  The numpy leg runs as is; the python leg runs
inside :func:`tests.conftest.numpy_unavailable` (numpy hidden from
``repro.plan.kernel``, the no-numpy CI leg's situation); a full-scan leg runs
inside :func:`tests.conftest.sidecars_hidden` (the missing-``.idx`` degrade).
Every leg asserts the ``loop`` it ran, so a silent fallback cannot compare
the reference with itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine
import repro.plan.backends
import repro.plan.kernel as kernel_mod
from repro import Collection, QueryService
from repro.core.automata import StateInterner
from repro.engine import Database
from repro.errors import EvaluationError
from repro.plan.cache import PlanCache
from repro.plan.kernel import batch_kernel, numpy_available
from repro.storage.records import flag_masks
from repro.storage.update import DeleteSubtree, InsertSubtree, Relabel
from tests.conftest import numpy_unavailable, on_loop, sidecars_hidden
from tests.strategies import tmnf_programs as programs

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Small pages so even hypothesis-sized documents span several of them.
PAGE_SIZE = 512

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")

#: Tags outside the program strategy's ``a``/``b`` alphabet: sections made
#: of these give the sidecar index skippable page runs, so the kernel's
#: per-segment path (including star regions) is exercised, not just full scans.
_NOISE_TAGS = ("n0", "n1", "n2", "n3")

#: Statistics fields that legitimately differ between implementations.
_TIMING_FIELDS = ("bu_seconds", "td_seconds", "memory_estimate_kb")


@st.composite
def sectioned_documents(draw) -> str:
    """XML documents made of sections, some of them index-skippable noise."""
    sections = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # does the section use program-relevant labels?
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=0, max_value=len(_NOISE_TAGS) - 1),
            ),
            min_size=1,
            max_size=10,
        )
    )
    parts = []
    for relevant, size, tag in sections:
        wrap = "b" if relevant else _NOISE_TAGS[tag]
        leaf = "a" if relevant else _NOISE_TAGS[(tag + 1) % len(_NOISE_TAGS)]
        parts.append(f"<{wrap}>" + f"<{leaf}/>" * size + f"</{wrap}>")
    return "<r>" + "".join(parts) + "</r>"


def _build(document: str, directory: str, page_size: int = PAGE_SIZE) -> Database:
    database = Database.build(document, f"{directory}/doc", page_size=page_size)
    database.plan_cache = PlanCache()
    return database


def _stats_key(statistics) -> dict:
    payload = dataclasses.asdict(statistics)
    for name in _TIMING_FIELDS:
        payload.pop(name, None)
    return payload


def _batch_key(batch) -> dict:
    """Everything of a :class:`BatchQueryResult` that must not depend on the kernel."""
    return {
        "answers": [
            {pred: sorted(nodes) for pred, nodes in result.selected.items()}
            for result in batch.results
        ],
        "counts": [dict(result.counts) for result in batch.results],
        "per_query_stats": [_stats_key(result.statistics) for result in batch.results],
        "arb_io": dataclasses.asdict(batch.arb_io),
        "state_io": dataclasses.asdict(batch.state_io),
        "state_file_bytes": batch.state_file_bytes,
        "phase1_stack_depth": batch.phase1_stack_depth,
        "phase2_stack_depth": batch.phase2_stack_depth,
        "backend": batch.backend,
    }


@contextlib.contextmanager
def _situation(database: Database, loop: str, use_index: bool = True):
    """Put the code where it picks ``loop`` and, or not, the page index."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(on_loop(loop))
        if not use_index:
            stack.enter_context(sidecars_hidden(os.path.dirname(database.disk.base_path)))
        yield


def _run_batch(database: Database, batch, loop: str, use_index: bool):
    """Cold then warm evaluation on a private plan cache."""
    database.plan_cache = PlanCache()
    with _situation(database, loop, use_index):
        cold = database.query_many(batch)
        warm = database.query_many(batch)
    assert cold.loop == warm.loop == loop
    return _batch_key(cold), _batch_key(warm)


def _differential(database: Database, batch, use_index: bool = True) -> None:
    numpy_cold, numpy_warm = _run_batch(database, batch, "numpy", use_index)
    python_cold, python_warm = _run_batch(database, batch, "python", use_index)
    assert numpy_cold == python_cold
    assert numpy_warm == python_warm


# ---------------------------------------------------------------------- #
# Random documents and batches
# ---------------------------------------------------------------------- #


@requires_numpy
@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=3),
)
@settings(max_examples=15, **COMMON_SETTINGS)
def test_kernel_matches_python_on_random_batches(document, batch):
    with tempfile.TemporaryDirectory() as directory:
        database = _build(document, directory)
        _differential(database, batch, use_index=True)
        _differential(database, batch, use_index=False)


@requires_numpy
@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=2),
    data=st.data(),
)
@settings(max_examples=10, **COMMON_SETTINGS)
def test_kernel_matches_python_after_updates(document, batch, data):
    """Spliced generations (new `.arb`, new sidecar) evaluate identically."""
    with tempfile.TemporaryDirectory() as directory:
        database = _build(document, directory)
        n = database.n_nodes
        edits = [
            Relabel(
                data.draw(st.integers(0, n - 1), label="relabel node"),
                data.draw(st.sampled_from(("a", "b") + _NOISE_TAGS), label="label"),
            ),
            InsertSubtree(0, "<b><a/><n2/></b>", position=0),
        ]
        if n > 1:
            edits.append(DeleteSubtree(data.draw(st.integers(1, n - 1), label="delete")))
        database.apply(edits)
        assert database.generation > 0
        _differential(database, batch)


# ---------------------------------------------------------------------- #
# Odd geometries
# ---------------------------------------------------------------------- #

_DEEP_DOC = "<a>" * 40 + "<b/>" + "</a>" * 40
_WIDE_DOC = "<r>" + "<a/><b/>" * 120 + "</r>"

_GEOMETRY_CASES = [
    # (document, page_size) -- page 7 does not divide the record size, so
    # records straddle every page boundary; 4096 puts a whole file in one page.
    ("<a/>", 4096),
    ("<a/>", 7),
    (_DEEP_DOC, 7),
    (_DEEP_DOC, 64),
    (_WIDE_DOC, 7),
    (_WIDE_DOC, 4096),
]

_FIXED_BATCH = [
    "QUERY :- V.Label[a];",
    "QUERY :- V.Root;",
    "QUERY :- V.-HasFirstChild;",
]


@requires_numpy
@pytest.mark.parametrize("document,page_size", _GEOMETRY_CASES)
def test_kernel_matches_python_on_odd_geometries(tmp_path, document, page_size):
    database = _build(document, str(tmp_path), page_size=page_size)
    _differential(database, _FIXED_BATCH, use_index=True)
    _differential(database, _FIXED_BATCH, use_index=False)


@requires_numpy
def test_kernel_counts_survive_dropping_selected_nodes(tmp_path):
    database = _build(_WIDE_DOC, str(tmp_path))
    full = database.query_many(_FIXED_BATCH)
    bare = database.query_many(_FIXED_BATCH, collect_selected_nodes=False)
    assert full.loop == bare.loop == "numpy"
    assert [r.counts for r in bare.results] == [r.counts for r in full.results]
    assert all(nodes == [] for r in bare.results for nodes in r.selected.values())


# ---------------------------------------------------------------------- #
# Single-query disk engine
# ---------------------------------------------------------------------- #


def _single_key(result) -> dict:
    return {
        "answers": {pred: sorted(nodes) for pred, nodes in result.selected.items()},
        "counts": dict(result.counts),
        "stats": _stats_key(result.statistics),
        "io": dataclasses.asdict(result.io),
        "backend": result.backend,
    }


@pytest.fixture
def loops_run(monkeypatch):
    """The ``loop`` of every lockstep evaluation in the test, in order.

    ``Database.query`` and the query service hand back per-query results,
    which do not carry the batch's ``loop``; both reach the one evaluator
    through a module attribute, recorded here.
    """
    seen = []

    def recording(*args, **kwargs):
        batch = evaluate(*args, **kwargs)
        seen.append(batch.loop)
        return batch

    evaluate = repro.engine.evaluate_batch_on_disk
    monkeypatch.setattr(repro.engine, "evaluate_batch_on_disk", recording)
    monkeypatch.setattr(repro.plan.backends, "evaluate_batch_on_disk", recording)
    return seen


@requires_numpy
@given(document=sectioned_documents(), program=programs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_single_disk_query_matches_python(loops_run, document, program):
    with tempfile.TemporaryDirectory() as directory:
        database = _build(document, directory)
        del loops_run[:]
        database.plan_cache = PlanCache()
        by_numpy = _single_key(database.query(program, engine="disk"))
        database.plan_cache = PlanCache()
        with numpy_unavailable():
            by_python = _single_key(database.query(program, engine="disk"))
        assert loops_run == ["numpy", "python"]
        assert by_numpy == by_python


# ---------------------------------------------------------------------- #
# Fallback honesty: which loop runs, and that the result says so
# ---------------------------------------------------------------------- #


def _plans(database: Database, queries, **kwargs):
    return [database.plan(query, **kwargs)[0] for query in queries]


@requires_numpy
def test_the_kernel_takes_the_batch_unless_numpy_is_unavailable(tmp_path):
    database = _build(_WIDE_DOC, str(tmp_path))
    plans = _plans(database, _FIXED_BATCH)
    assert batch_kernel(plans, database.disk, None) is not None
    with numpy_unavailable():
        assert not numpy_available()
        assert batch_kernel(plans, database.disk, None) is None
        assert database.query_many(_FIXED_BATCH).loop == "python"
    assert numpy_available()
    assert database.query_many(_FIXED_BATCH).loop == "numpy"


@requires_numpy
def test_numpy_unavailable_reaches_executor_threads_and_the_service_worker(tmp_path, loops_run):
    """The situation is the process's, not the calling thread's: shard
    workers and the service's evaluation thread see it, and see it end."""
    collection = Collection.create(str(tmp_path / "corpus"), plan_cache=PlanCache())
    for _ in range(2):
        collection.add_document(_WIDE_DOC)
    database = _build(_WIDE_DOC, str(tmp_path))

    def sharded():
        result = collection.query_many(_FIXED_BATCH, n_workers=2, executor="thread")
        assert {doc.shard_index for doc in result} == {0, 1}
        return [doc.loop for doc in result]

    async def served():
        async with QueryService(database, window=0.0) as service:
            return (await service.submit(_FIXED_BATCH[0])).result.counts

    with numpy_unavailable():
        assert sharded() == ["python", "python"]
        del loops_run[:]
        by_python = asyncio.run(served())
        assert loops_run == ["python"]
    assert sharded() == ["numpy", "numpy"]
    del loops_run[:]
    assert asyncio.run(served()) == by_python
    assert loops_run == ["numpy"]


@requires_numpy
def test_unmemoised_plans_fall_back_to_python(tmp_path):
    database = _build(_WIDE_DOC, str(tmp_path))
    plans = _plans(database, _FIXED_BATCH, memoize=False)
    assert batch_kernel(plans, database.disk, None) is None
    # The fallback names itself and still answers identically.
    result = database.query_many(_FIXED_BATCH, memoize=False)
    baseline = database.query_many(_FIXED_BATCH, memoize=True)
    assert (result.loop, baseline.loop) == ("python", "numpy")
    assert _batch_key(result)["answers"] == _batch_key(baseline)["answers"]


@requires_numpy
def test_a_composite_key_overflow_raises_rather_than_collides(tmp_path, monkeypatch):
    """The kernel's one bound is on distinct record symbols and composite
    states, never on nodes: below the packing base the answers are exact,
    at it the batch raises the named error instead of packing two states
    into one key."""
    database = _build("<r>" + _DEEP_DOC + _WIDE_DOC + "</r>", str(tmp_path))
    with numpy_unavailable():
        reference = _batch_key(database.query_many(_FIXED_BATCH))
    outcomes = set()
    for base in (2, 3, 4, 6, 8, 16, 1 << 21):
        monkeypatch.setattr(kernel_mod, "_PACK_BASE", base)
        database.plan_cache = PlanCache()
        try:
            batch = database.query_many(_FIXED_BATCH)
        except EvaluationError as error:
            assert str(error) == kernel_mod.COMPOSITE_OVERFLOW
            outcomes.add("overflow")
        else:
            assert batch.loop == "numpy"
            assert _batch_key(batch) == reference
            outcomes.add("exact")
    assert outcomes == {"exact", "overflow"}


#: Three ways a flipped child-flag bit breaks the tree of ``<a><b><c/></b><d/></a>``:
#: ``(node, bit to set, bit to clear)`` with 0 = first-child, 1 = second-child.
_CORRUPTIONS = {
    "last-record-claims-a-first-child": (3, 0, None),
    "root-claims-a-second-child": (0, 1, None),
    "node-1-loses-its-first-child": (1, None, 0),
}


@pytest.mark.parametrize("loop", ["numpy", "python"])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_a_corrupt_arb_raises_the_named_error_on_either_loop(tmp_path, loop, corruption):
    base = str(tmp_path / "doc")
    built = Database.build("<a><b><c/></b><d/></a>", base)
    path, size = built.disk.arb_path, built.disk.record_size
    built.close()
    node, set_bit, clear_bit = _CORRUPTIONS[corruption]
    masks = flag_masks(size)
    with open(path, "r+b") as handle:
        handle.seek(node * size)
        value = int.from_bytes(handle.read(size), "big")
        if set_bit is not None:
            value |= masks[set_bit]
        if clear_bit is not None:
            value &= ~masks[clear_bit]
        handle.seek(node * size)
        handle.write(value.to_bytes(size, "big"))
    database = Database.open(base)
    database.plan_cache = PlanCache()
    with on_loop(loop), pytest.raises(EvaluationError) as raised:
        database.query_many(_FIXED_BATCH)
    assert str(raised.value) == kernel_mod.PHASE1_INCONSISTENT


def test_loop_is_reported_only_by_the_lockstep_disk_path(tmp_path):
    database = _build(_WIDE_DOC, str(tmp_path))
    expected = "numpy" if numpy_available() else "python"
    assert database.query_many(_FIXED_BATCH).loop == expected
    assert database.query_many(_FIXED_BATCH, engine="memory").loop is None
    assert Database.from_xml(_WIDE_DOC).query_many(_FIXED_BATCH).loop is None


# ---------------------------------------------------------------------- #
# StateInterner
# ---------------------------------------------------------------------- #


def test_state_interner_assigns_dense_stable_ids():
    interner = StateInterner([("bottom",)])
    assert interner.intern(("bottom",)) == 0
    first = interner.intern(frozenset({"X0"}))
    second = interner.intern(frozenset({"X1"}))
    assert (first, second) == (1, 2)
    assert interner.intern(frozenset({"X0"})) == first
    assert interner.get(frozenset({"X1"})) == second
    assert interner.get("never seen") is None
    assert len(interner) == 3
    assert interner[first] == frozenset({"X0"})
    assert interner.values == [("bottom",), frozenset({"X0"}), frozenset({"X1"})]
