"""Property suite: splice updates == rebuild-from-scratch (`storage/update.py`).

For random documents and random sequences of commits (single updates and
groups), applying them copy-on-write on disk must be observationally identical to rebuilding a
fresh database from the equivalently mutated in-memory tree
(:func:`~repro.storage.update.apply_to_tree`, the executable
specification):

* the decoded record stream (label names plus child/sibling flags) matches
  record for record -- the strongest structural equivalence the format has
  (raw bytes may differ only in label-index assignment order);
* disk query answers match for every probe query;
* the access-pattern counters (``pages_read`` / ``bytes_read`` / ``seeks``)
  of a disk batch on the updated generation match the rebuilt database
  exactly -- updates must not erode the paper's two-scan guarantee;
* a reader that opened before the update sequence still sees its snapshot.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database
from repro.errors import StorageError
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.pageindex import summarize_arb_bytes
from repro.storage.paging import IOStatistics
from repro.storage.splice import _summarize
from repro.storage.structure import _analyse, structure_cache
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_many,
    apply_to_tree,
    apply_update,
)

from tests.strategies import unranked_trees

LABELS = ("a", "b", "c")

PROBES = tuple(f"QUERY :- V.Label[{label}];" for label in LABELS) + (
    # A structural probe: the root's children (first child, then its whole
    # sibling chain) -- exercises the mutated shape, not just the labels.
    "A :- Root; QUERY :- A.FirstChild.SecondChild*;",
)


def _stream_of(database: ArbDatabase) -> list[tuple[str, bool, bool]]:
    return [
        (database.label_name(record), record.has_first_child, record.has_second_child)
        for record in database.records_forward()
    ]


def _record_stream(base: str, generation: int | None = None) -> list[tuple[str, bool, bool]]:
    return _stream_of(ArbDatabase.open(base, generation=generation))


def _draw_update(draw, mirror):
    """One random update valid against the current mirror tree."""
    nodes = list(mirror.iter_nodes())
    n = len(nodes)
    kinds = ["relabel", "insert"] + (["delete"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "relabel":
        return Relabel(draw(st.integers(0, n - 1)), draw(st.sampled_from(LABELS)))
    if kind == "delete":
        return DeleteSubtree(draw(st.integers(1, n - 1)))
    parent = draw(st.integers(0, n - 1))
    position = draw(st.integers(0, len(nodes[parent].children)))
    subtree = draw(unranked_trees(max_leaves=4))
    return InsertSubtree(parent, subtree, position=position)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_apply_equals_rebuild_from_scratch(data):
    tree = data.draw(unranked_trees(max_leaves=8))
    n_commits = data.draw(st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "live")
        build_database(tree, base)
        database = Database.open(base)
        snapshot = Database.open(base)
        snapshot_stream = _record_stream(base)

        mirror = tree
        for _ in range(n_commits):
            # A drawn group size: one operation goes through ``apply``, more
            # through ``apply_many`` -- the same commit path either way, and
            # the same oracle.
            group = []
            for _ in range(data.draw(st.integers(1, 3), label="group size")):
                group.append(_draw_update(data.draw, mirror))
                mirror = apply_to_tree(mirror, group[-1])
            result = database.apply(group[0]) if len(group) == 1 else database.apply_many(group)
            assert result.n_ops == len(group)
            assert result.n_nodes == mirror.node_count()

        rebuilt_base = os.path.join(tmp, "rebuilt")
        build_database(mirror, rebuilt_base)
        rebuilt = Database.open(rebuilt_base)

        # Identical decoded record streams: same labels, same structure.
        live_base = database.disk.base_path
        assert _record_stream(live_base) == _record_stream(rebuilt_base)
        assert database.n_nodes == mirror.node_count() == rebuilt.n_nodes

        # Same answers, same access pattern: one scan pair for the batch,
        # byte-for-byte equal counters against the from-scratch rebuild.
        live = database.query_many(PROBES, engine="disk", temp_dir=tmp)
        fresh = rebuilt.query_many(PROBES, engine="disk", temp_dir=tmp)
        for mine, theirs in zip(live.results, fresh.results):
            assert mine.selected_nodes() == theirs.selected_nodes()
        assert live.arb_io.pages_read == fresh.arb_io.pages_read
        assert live.arb_io.bytes_read == fresh.arb_io.bytes_read
        assert live.arb_io.seeks == fresh.arb_io.seeks == 2

        # The pre-update snapshot still reads generation 0, untouched --
        # both through the long-lived pinned handle and through a fresh
        # explicitly pinned open.
        assert snapshot.generation == 0
        assert _stream_of(snapshot.disk) == snapshot_stream
        assert _record_stream(base, generation=0) == snapshot_stream


def _analysis_of(base: str):
    database = ArbDatabase.open(base)
    return database, _analyse(database, IOStatistics())


def _named(database: ArbDatabase, structure) -> tuple[list[str], list[int], list[int]]:
    """A structure with label *names* for indexes: a splice and a rebuild
    may number the same tag names in different orders."""
    names = [database.labels.name_of(index) for index in structure.label_idx]
    return names, list(structure.usize), list(structure.has_next)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_structure_updated_in_place_equals_analysis_of_a_rebuild(data):
    """apply == rebuild for the one data structure of the write path: the
    structure each commit edits in place and leaves in the cache equals a
    fresh ``_analyse`` of the generation it wrote (field for field) and of
    a from-scratch build of the oracle's tree (label names for indexes) --
    and a refused group leaves the cached structure untouched."""
    mirror = data.draw(unranked_trees(max_leaves=8))
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "live")
        build_database(mirror, base)
        for step in range(data.draw(st.integers(1, 5), label="ops")):
            op = _draw_update(data.draw, mirror)
            mirror = apply_to_tree(mirror, op)
            apply_update(base, op)

            live, fresh = _analysis_of(base)
            cached = structure_cache.get(live.arb_path, live.creation_counter)
            assert cached == fresh, op
            rebuilt_base = os.path.join(tmp, f"rebuilt{step}")
            build_database(mirror, rebuilt_base)
            assert _named(live, cached) == _named(*_analysis_of(rebuilt_base)), op

            # A bad op behind a valid insert (two nodes, one more child of
            # the root), so the commit's structure is edited before the
            # refusal: it is a copy, the cached instance stays as it was.
            bad = data.draw(
                st.sampled_from(
                    [
                        Relabel(mirror.node_count() + 2, "a"),  # bad node
                        DeleteSubtree(0),  # would empty the database
                        InsertSubtree(0, "<a/>", position=len(mirror.root.children) + 2),  # bad position
                    ]
                )
            )
            with pytest.raises(StorageError):
                apply_many(base, [InsertSubtree(0, "<b><a/></b>", position=0), bad])
            kept = structure_cache.get(live.arb_path, live.creation_counter)
            assert kept is cached and cached == fresh, bad


@pytest.mark.parametrize("record_size", [2, 3])
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=unranked_trees(max_leaves=12), records_per_page=st.integers(1, 7))
def test_page_summaries_from_the_structure_equal_the_stack_simulation(tree, records_per_page, record_size):
    """The `.idx` rows a commit computes from its structure, in closed form,
    are the rows the builder's backward stack simulation computes from the
    records -- on every page grid, aligned to subtrees or not, and for a
    record size without an ``array`` typecode too."""
    with tempfile.TemporaryDirectory() as tmp:
        build_database(tree, os.path.join(tmp, "doc"), record_size=record_size)
        database, structure = _analysis_of(os.path.join(tmp, "doc"))
        with open(database.arb_path, "rb") as handle:
            oracle = summarize_arb_bytes(
                handle.read(),
                n_records=structure.n,
                record_size=database.record_size,
                page_size=records_per_page * database.record_size,
                n_label_indices=1 << 14,
            )
    rows = [
        _summarize(structure, start, min(start + records_per_page, structure.n))
        for start in range(0, structure.n, records_per_page)
    ]
    assert rows == oracle.rows()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_apply_to_tree_is_pure(data):
    """The mirror never mutates its input (updates are value semantics)."""
    tree = data.draw(unranked_trees(max_leaves=6))
    frozen = tree.to_nested()
    update = _draw_update(data.draw, tree)
    mutated = apply_to_tree(tree, update)
    assert tree.to_nested() == frozen
    if isinstance(update, Relabel):
        assert mutated.node_count() == tree.node_count()
