"""Differential properties of the two-phase disk loop.

The disk loop (:mod:`repro.plan.kernel`) is held to the implementations
that really exist beside it, the way pooled==unpooled is held elsewhere:

* **disk == memory** -- with the page-skipping sidecar hidden, a batch over
  the `.arb` file selects exactly what the in-memory two-phase evaluator
  selects over the same tree, and every field of its statistics but the
  wall clock is the same, per query and for the batch, cold and warm;
* **indexed == full scan** -- with the sidecar the answers are the same and
  no more `.arb` pages are read;
* **closed form** -- the state file holds 4 bytes per node outside the
  regions phase 1 crossed, and a full scan costs exactly two `.arb` seeks.

Each is checked on random documents and batches, on spliced post-update
generations and on odd geometries (single-record files, pages that do not
divide the record size, wide and deep trees), and on chains of neutral
siblings whose carried state must be exact or the chain read.  The loop's one bound
(distinct composite states, never nodes), a corrupt `.arb` and the
unmemoised laziness ablation are pinned at the end.  The full-scan leg runs
inside :func:`tests.conftest.sidecars_hidden` (the missing-``.idx``
degrade); nothing in ``src/`` takes an argument that selects it.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.plan.kernel as kernel_mod
from repro.core.automata import StateInterner
from repro.engine import Database
from repro.errors import EvaluationError
from repro.plan.batch import _compute_skip
from repro.plan.cache import PlanCache
from repro.storage.records import flag_masks
from repro.storage.update import DeleteSubtree, InsertSubtree, Relabel
from tests.conftest import sidecars_hidden
from tests.strategies import tmnf_programs as programs

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Small pages so even hypothesis-sized documents span several of them.
PAGE_SIZE = 512

#: 32 records per page: a few dozen sibling subtrees span several pages, so
#: random documents have chain regions too.
CHAIN_PAGE_SIZE = 64

#: Tags outside the program strategy's ``a``/``b`` alphabet: sections made
#: of these give the sidecar index skippable page runs, so the loop's
#: per-segment path (including star regions) is exercised, not just full scans.
_NOISE_TAGS = ("n0", "n1", "n2", "n3")

#: The statistics fields disk and memory cannot agree on: the wall clock.
#: The disk scans are shared, so a plan gets a share of their time, and a
#: repeated query gets none, where the memory engine times its warm re-run.
_SECONDS_FIELDS = ("bu_seconds", "td_seconds")


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
    for name in _SECONDS_FIELDS:
        payload.pop(name, None)
    return payload


def _batch_key(batch) -> dict:
    """Everything of a :class:`BatchQueryResult` but the wall clock."""
    return {
        "answers": _answers(batch),
        "counts": [dict(result.counts) for result in batch.results],
        "per_query_stats": [_stats_key(result.statistics) for result in batch.results],
        "arb_io": dataclasses.asdict(batch.arb_io),
        "state_io": dataclasses.asdict(batch.state_io),
        "state_file_bytes": batch.state_file_bytes,
        "phase1_stack_depth": batch.phase1_stack_depth,
        "phase2_stack_depth": batch.phase2_stack_depth,
        "backend": batch.backend,
    }


def _answers(batch) -> list[dict]:
    return [{pred: sorted(nodes) for pred, nodes in result.selected.items()} for result in batch.results]


def _all_stats(batch) -> list[dict]:
    """:func:`_stats_key` of the batch, then of each query."""
    return [_stats_key(batch.statistics)] + [_stats_key(result.statistics) for result in batch.results]


def _cold_and_warm(database: Database, batch, **options):
    """Cold then warm evaluation on a private plan cache."""
    database.plan_cache = PlanCache()
    return database.query_many(batch, **options), database.query_many(batch, **options)


@contextmanager
def _crossings():
    """Record, per disk run, the skip regions its phase 1 crossed: every
    self-contained one, and each chain it carried a state across."""
    runs: list[list] = []
    real = kernel_mod.run_phase1

    def spy(plans, database, skip, *rest):
        depth, composites, orbits = real(plans, database, skip, *rest)
        segments = () if skip is None else skip.segments
        crossed = [
            region for start, _, region in segments if region and (not region.chain or start in orbits)
        ]
        runs.append(crossed)
        return depth, composites, orbits

    with mock.patch.object(kernel_mod, "run_phase1", spy):
        yield runs


def _scanned_nodes(database: Database, crossed) -> int:
    """The nodes outside every region phase 1 crossed."""
    return database.n_nodes - sum(region.count for region in crossed)


def _differential(database: Database, batch) -> list[list]:
    """The differential legs; returns the regions each indexed run crossed."""
    memory = _cold_and_warm(database, batch, engine="memory")
    with sidecars_hidden(os.path.dirname(database.disk.base_path)):
        full = _cold_and_warm(database, batch)
    with _crossings() as crossed:
        indexed = _cold_and_warm(database, batch)
    for by_memory, by_full, by_index, regions in zip(memory, full, indexed, crossed):
        assert _answers(by_full) == _answers(by_memory)
        assert _all_stats(by_full) == _all_stats(by_memory)
        assert _answers(by_index) == _answers(by_full)
        assert by_index.arb_io.pages_read <= by_full.arb_io.pages_read
        assert (by_full.state_file_bytes, by_full.arb_io.seeks) == (4 * database.n_nodes, 2)
        assert by_index.state_file_bytes == 4 * _scanned_nodes(database, regions)
    return crossed


# ---------------------------------------------------------------------- #
# Random documents and batches
# ---------------------------------------------------------------------- #


@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=3),
    page_size=st.sampled_from((CHAIN_PAGE_SIZE, PAGE_SIZE)),
)
@settings(max_examples=15, **COMMON_SETTINGS)
def test_disk_matches_memory_and_full_scan_on_random_batches(document, batch, page_size):
    with tempfile.TemporaryDirectory() as directory:
        _differential(_build(document, directory, page_size=page_size), batch)


@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=2),
    data=st.data(),
)
@settings(max_examples=10, **COMMON_SETTINGS)
def test_disk_matches_memory_and_full_scan_after_updates(document, batch, data):
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


@pytest.mark.parametrize("document,page_size", _GEOMETRY_CASES)
def test_disk_matches_memory_and_full_scan_on_odd_geometries(tmp_path, document, page_size):
    _differential(_build(document, str(tmp_path), page_size=page_size), _FIXED_BATCH)


# ---------------------------------------------------------------------- #
# Chains: the state carried across neutral siblings is exact
# ---------------------------------------------------------------------- #

#: Even / Odd: the distance to the next ``b`` among the following siblings.
#: Along a chain of neutral siblings the carried state alternates and is
#: never ``s*``.  The top-down ``P1`` / ``P2`` walk from a ``b`` at an even
#: distance only reaches the next ``b`` if every sibling on the way has
#: the state it should.  The queries are on a relevant label.
_PARITY = """
A :- Label[b];
Odd :- A.invNextSibling;
Even :- Odd.invNextSibling;
Odd :- Even.invNextSibling;
P2 :- A, Even;
Q2 :- P2.NextSibling;
P1 :- Q2, Odd;
Q1 :- P1.NextSibling;
P2 :- Q1, Even;
QUERY :- Even, Label[b];
QUERY :- Q1, Label[b];
"""

#: A ``b`` whose following siblings up to the next ``b`` all have children.
#: Where no ``b`` follows, ``F`` holds anyway (``M``: only neutral nodes up
#: to the end of the child list), so all-neutral subtrees keep one state
#: ``s*``; in front of a ``b`` a neutral leaf and a neutral non-leaf differ.
_NON_LEAVES = """
B :- -Label[b];
A :- Label[b];
M :- LastSibling;
M :- N.invNextSibling;
N :- B, M;
K :- A.invNextSibling;
K :- K.invNextSibling;
Q :- K.FirstChild;
F :- Q.invFirstChild;
F :- M;
WA :- A.invNextSibling;
WA :- W.invNextSibling;
W :- F, WA;
R :- W.invNextSibling;
QUERY :- R, Label[b];
"""

#: Every node with a ``b`` among its following siblings: a neutral chain
#: sibling can be selected, though no all-neutral subtree can.
_IN_FRONT_OF_A_B = """
A :- Label[b];
K :- A.invNextSibling;
K :- K.invNextSibling;
QUERY :- K;
"""

_UNITS = "<n0><n1/><n1/></n0>"
#: A commit between the differential legs: one more neutral leaf sibling.
_ONE_MORE_SIBLING = InsertSubtree(0, "<n0/>", position=1)


def _chain_document(units: str) -> str:
    return "<r><b/>" + units + "<b/></r>"


def _chains(database: Database, query: str) -> list:
    skip = _compute_skip([database.plan(query)[0]], database.disk)
    return [] if skip is None else [region for _, _, region in skip.segments if region and region.chain]


def _before_and_after_a_commit(document: str, query: str, directory: str) -> list[tuple[list, list]]:
    """:func:`_differential` on ``document``, then again after a commit:
    per leg, the chains the skip plan holds and the regions phase 1 crossed."""
    database = _build(document, directory, page_size=CHAIN_PAGE_SIZE)
    legs = [(_chains(database, query), _differential(database, [query]))]
    database.apply(_ONE_MORE_SIBLING)
    legs.append((_chains(database, query), _differential(database, [query])))
    return legs


def test_a_carried_state_that_alternates_with_the_chain_length(tmp_path):
    parities = set()
    for n_units in (25, 40, 41):
        directory = tmp_path / str(n_units)
        directory.mkdir()
        legs = _before_and_after_a_commit(_chain_document(_UNITS * n_units), _PARITY, str(directory))
        for chains, crossed in legs:
            assert chains and all(chain in run for run in crossed for chain in chains)
            parities.update(chain.n_roots % 2 for chain in chains)
        # Both ``b`` are selected iff they are an even distance apart:
        # ``n_units`` siblings between them, plus the one the commit inserted.
        database = Database.open(str(directory / "doc"))
        assert len(_answers(database.query_many([_PARITY]))[0]["QUERY"]) == (0 if n_units % 2 else 2)
    assert parities == {0, 1}


@pytest.mark.parametrize("has_leaf", [True, False])
def test_a_chain_whose_leaves_differ_from_non_leaves_is_read(tmp_path, has_leaf):
    units = "<n0><n1/></n0>" * 60
    document = _chain_document(units + "<n0/>" * has_leaf + units)
    for chains, crossed in _before_and_after_a_commit(document, _NON_LEAVES, str(tmp_path)):
        assert chains and not any(region.chain for run in crossed for region in run)


@pytest.mark.parametrize("query", [_IN_FRONT_OF_A_B, "QUERY :- -Label[b];"])
def test_a_region_whose_neutral_nodes_can_be_selected_is_read(tmp_path, query):
    # A chain in front of the second ``b``, a self-contained run after it.
    document = "<r><b/>" + _UNITS * 40 + "<b/>" + _UNITS * 40 + "</r>"
    can_select_everywhere = query.startswith("QUERY :- -")
    for chains, crossed in _before_and_after_a_commit(document, query, str(tmp_path)):
        assert bool(chains) != can_select_everywhere  # s* itself selects: no skip plan
        for run in crossed:
            assert not any(region.chain for region in run)
            assert bool(run) != can_select_everywhere  # the run after the last ``b``


def test_counts_survive_dropping_selected_nodes(tmp_path):
    database = _build(_WIDE_DOC, str(tmp_path))
    full = database.query_many(_FIXED_BATCH)
    bare = database.query_many(_FIXED_BATCH, collect_selected_nodes=False)
    assert [r.counts for r in bare.results] == [r.counts for r in full.results]
    assert all(nodes == [] for r in bare.results for nodes in r.selected.values())


# ---------------------------------------------------------------------- #
# Single-query disk engine
# ---------------------------------------------------------------------- #


@given(document=sectioned_documents(), program=programs())
@settings(max_examples=10, **COMMON_SETTINGS)
def test_single_disk_query_matches_memory(document, program):
    with tempfile.TemporaryDirectory() as directory:
        database = _build(document, directory)
        database.plan_cache = PlanCache()
        in_memory = database.query(program, engine="memory")
        database.plan_cache = PlanCache()
        with sidecars_hidden(directory):
            on_disk = database.query(program, engine="disk")
        assert on_disk.backend == "disk"
        assert on_disk.selected == in_memory.selected
        assert on_disk.counts == in_memory.counts
        assert _stats_key(on_disk.statistics) == _stats_key(in_memory.statistics)
        assert on_disk.io.bytes_written == 4 * database.n_nodes


# ---------------------------------------------------------------------- #
# The laziness ablation, the one bound, corrupt input
# ---------------------------------------------------------------------- #


def test_unmemoised_plans_match_memoised(tmp_path):
    """The ablation recomputes every transition: per plan, one bottom-up
    transition per node and one top-down per non-root node."""
    database = _build(_WIDE_DOC, str(tmp_path))
    with sidecars_hidden(tmp_path):
        unmemoised = database.query_many(_FIXED_BATCH, memoize=False)
        memoised = database.query_many(_FIXED_BATCH, memoize=True)
    assert _answers(unmemoised) == _answers(memoised)
    n = database.n_nodes
    assert n == 241
    transitions = [(r.statistics.bu_transitions, r.statistics.td_transitions) for r in unmemoised]
    assert transitions == [(n, n - 1)] * len(_FIXED_BATCH)


def test_unmemoised_plans_skip_the_pages_memoised_plans_skip(tmp_path):
    """The ablation is a branch inside the same per-segment loop: with the
    sidecar, unmemoised plans skip the same noise pages as memoised ones and
    recompute one bottom-up transition per scanned node, none per skipped one."""
    document = "<r>" + "<b><a/></b>" * 40 + "<n0>" + "<n1/>" * 2000 + "</n0></r>"
    database = _build(document, str(tmp_path))
    batch = ["QUERY :- V.Label[a];", "QUERY :- V.Label[b];"]
    memoised = database.query_many(batch, memoize=True)
    unmemoised = database.query_many(batch, memoize=False)
    with sidecars_hidden(tmp_path):
        full = database.query_many(batch, memoize=False)
    assert _answers(unmemoised) == _answers(memoised) == _answers(full)
    assert [r.counts for r in unmemoised] == [{"QUERY": 40}] * 2
    assert unmemoised.arb_io == memoised.arb_io
    assert unmemoised.arb_io.pages_read < full.arb_io.pages_read
    skip = _compute_skip([database.plan(query)[0] for query in batch], database.disk)
    scanned = _scanned_nodes(database, [region for _, _, region in skip.segments if region])
    assert scanned < database.n_nodes
    assert unmemoised.state_file_bytes == memoised.state_file_bytes == 4 * scanned
    # Plus the four that find a plan's neutral state s* on its first run:
    # the leaf state, then its three child-shape fixed-point checks.
    assert [r.statistics.bu_transitions for r in unmemoised] == [scanned + 4] * 2


def test_a_composite_key_overflow_raises_rather_than_collides(tmp_path, monkeypatch):
    """The loop's one bound is on distinct record symbols and composite
    states, never on nodes: below the packing base the answers are exact,
    at it the batch raises the named error instead of packing two states
    into one key."""
    database = _build("<r>" + _DEEP_DOC + _WIDE_DOC + "</r>", str(tmp_path))
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


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_a_corrupt_arb_raises_the_named_error(tmp_path, corruption):
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
    with pytest.raises(EvaluationError) as raised:
        database.query_many(_FIXED_BATCH)
    assert str(raised.value) == kernel_mod.PHASE1_INCONSISTENT


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
