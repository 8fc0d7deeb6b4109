"""Group-commit semantics of :func:`repro.storage.update.apply_many`.

The contract under test: a group of N update operations lands as **one**
spliced generation whose files are byte-identical to what the same
operations produce applied one commit at a time (one group of N == N groups
of one: there is only one commit path) -- while every commit pays the same
bounded durability budget (at most 2 data fsyncs, exactly 1 pointer swap
and 1 WAL append, however large N is) and either commits whole or leaves
the database untouched.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.collection import Collection
from repro.engine import Database
from repro.errors import StorageError
from repro.storage.build import build_database
from repro.storage.durability import durability
from repro.storage.generations import generation_base, list_generations, read_pointer
from repro.storage.update import (
    DeleteSubtree,
    GroupCommitResult,
    InsertSubtree,
    Relabel,
    apply_many,
    apply_to_tree,
    apply_update,
    op_from_spec,
)
from repro.storage.wal import wal_path

from tests.strategies import unranked_trees

DOC = "<lib><book><a/><b/></book><dvd/><book/></lib>"
BOOKS = "QUERY :- V.Label[book];"

#: A mixed group: relabel, grow, shrink -- node ids interpreted against the
#: intermediate states, exactly like sequential applies.
GROUP = (
    Relabel(1, "tome"),
    InsertSubtree(0, "<book><isbn/></book>", position=0),
    DeleteSubtree(4),
)


def _build(tmp_path, name: str = "doc") -> str:
    base = str(tmp_path / name)
    build_database(DOC, base, text_mode="ignore")
    return base


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _generation_bytes(base: str, generation: int, suffix: str) -> bytes:
    return _file_bytes(generation_base(base, generation) + suffix)


# --------------------------------------------------------------------------- #
# Group == sequence
# --------------------------------------------------------------------------- #


def test_group_is_byte_identical_to_sequential_applies(tmp_path):
    grouped = _build(tmp_path, "grouped")
    sequential = _build(tmp_path, "sequential")

    result = apply_many(grouped, list(GROUP))
    for op in GROUP:
        apply_update(sequential, op)

    assert isinstance(result, GroupCommitResult)
    assert result.n_ops == len(GROUP)
    assert result.new_generation == read_pointer(sequential).generation
    assert result.counter == read_pointer(sequential).counter
    for suffix in (".arb", ".lab", ".idx"):
        assert _generation_bytes(grouped, result.new_generation, suffix) == \
            _generation_bytes(sequential, result.new_generation, suffix), suffix

    mine = Database.open(grouped).query(BOOKS, engine="disk")
    theirs = Database.open(sequential).query(BOOKS, engine="disk")
    assert mine.selected_nodes() == theirs.selected_nodes()
    # The group committed: its WAL is spent.
    assert not os.path.exists(wal_path(grouped)) or \
        os.path.getsize(wal_path(grouped)) == 0


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_random_groups_equal_sequential_applies(data):
    """apply_many(ops) == N x apply_update(op), for random valid groups."""
    labels = ("a", "b", "c")
    tree = data.draw(unranked_trees(max_leaves=6))
    n_ops = data.draw(st.integers(1, 4))
    mirror = tree
    ops = []
    for _ in range(n_ops):
        nodes = list(mirror.iter_nodes())
        kinds = ["relabel", "insert"] + (["delete"] if len(nodes) > 1 else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "relabel":
            op = Relabel(data.draw(st.integers(0, len(nodes) - 1)),
                         data.draw(st.sampled_from(labels)))
        elif kind == "delete":
            op = DeleteSubtree(data.draw(st.integers(1, len(nodes) - 1)))
        else:
            parent = data.draw(st.integers(0, len(nodes) - 1))
            position = data.draw(st.integers(0, len(nodes[parent].children)))
            op = InsertSubtree(parent, data.draw(unranked_trees(max_leaves=3)),
                               position=position)
        ops.append(op)
        mirror = apply_to_tree(mirror, op)

    with tempfile.TemporaryDirectory() as tmp:
        grouped = os.path.join(tmp, "grouped")
        sequential = os.path.join(tmp, "sequential")
        build_database(tree, grouped)
        build_database(tree, sequential)
        result = apply_many(grouped, ops)
        for op in ops:
            apply_update(sequential, op)
        assert result.n_nodes == mirror.node_count()
        for suffix in (".arb", ".lab", ".idx"):
            assert _generation_bytes(grouped, result.new_generation, suffix) == \
                _generation_bytes(sequential, result.new_generation, suffix), suffix


# --------------------------------------------------------------------------- #
# Durability budget
# --------------------------------------------------------------------------- #


def test_group_commit_fsync_budget(tmp_path):
    """N queued ops cost at most 2 data fsyncs and exactly 1 pointer swap."""
    base = _build(tmp_path)
    before = durability.snapshot()
    apply_many(base, list(GROUP))
    delta = durability.since(before)
    assert delta.data_fsyncs <= 2, delta
    assert delta.pointer_swaps == 1, delta
    assert delta.wal_appends == 1, delta
    assert delta.wal_replays == 0, delta


def test_single_update_pays_the_same_budget(tmp_path):
    """A single update is a group of one: same protocol, same budget."""
    base = _build(tmp_path)
    before = durability.snapshot()
    result = apply_update(base, GROUP[1])
    delta = durability.since(before)
    assert result.n_ops == 1 and not result.replayed
    assert delta.data_fsyncs <= 2, delta
    assert delta.pointer_swaps == 1, delta
    assert delta.wal_appends == 1, delta
    assert delta.wal_replays == 0, delta


def test_sequential_applies_cost_more_fsyncs_than_one_group(tmp_path):
    grouped = _build(tmp_path, "grouped")
    sequential = _build(tmp_path, "sequential")
    before = durability.snapshot()
    apply_many(grouped, list(GROUP))
    group_cost = durability.since(before).data_fsyncs
    before = durability.snapshot()
    for op in GROUP:
        apply_update(sequential, op)
    assert durability.since(before).data_fsyncs > group_cost


# --------------------------------------------------------------------------- #
# Atomicity and validation
# --------------------------------------------------------------------------- #


def test_failed_group_commits_nothing(tmp_path):
    """One bad op rejects the whole group; nothing changes on disk."""
    base = _build(tmp_path)
    pointer = read_pointer(base)
    arb = _generation_bytes(base, 0, ".arb")
    with pytest.raises(StorageError):
        apply_many(base, [Relabel(1, "tome"), DeleteSubtree(999)])
    assert read_pointer(base) == pointer
    assert list_generations(base) == [0]
    assert _generation_bytes(base, 0, ".arb") == arb
    assert not os.path.exists(wal_path(base)) or \
        os.path.getsize(wal_path(base)) == 0
    # The base is not wedged: a clean group still lands.
    result = apply_many(base, list(GROUP))
    assert result.new_generation == pointer.counter + len(GROUP)


def test_empty_group_is_rejected(tmp_path):
    base = _build(tmp_path)
    with pytest.raises(StorageError):
        apply_many(base, [])


def test_stale_expectation_is_refused(tmp_path):
    base = _build(tmp_path)
    apply_update(base, Relabel(1, "tome"))
    with pytest.raises(StorageError):
        apply_many(base, [Relabel(1, "x")], expected_generation=0,
                   expected_counter=1)


# --------------------------------------------------------------------------- #
# Upper layers
# --------------------------------------------------------------------------- #


def test_engine_apply_many_refreshes_the_handle(tmp_path):
    base = _build(tmp_path)
    database = Database.open(base)
    snapshot = Database.open(base)
    result = database.apply_many(list(GROUP))
    assert isinstance(result, GroupCommitResult)
    assert database.generation == result.new_generation
    assert database.n_nodes == result.n_nodes
    # Copy-on-write still holds for the whole group: the pre-group reader
    # keeps its snapshot.
    assert snapshot.generation == 0
    assert snapshot.n_nodes == 6


def test_collection_apply_many_advances_the_manifest_once(tmp_path):
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    collection.add_document(DOC, doc_id="one", text_mode="ignore")
    result = collection.apply_many("one", list(GROUP))
    entry = collection.manifest.get("one")
    assert entry.generation == result.new_generation
    assert entry.counter == result.counter
    assert entry.n_nodes == result.n_nodes
    # The save is durable: a fresh open sees the new generation.
    reopened = Collection.open(root)
    assert reopened.manifest.get("one").generation == result.new_generation
    assert reopened.query(BOOKS).count() == 2


def test_op_from_spec_round_trip(tmp_path):
    specs = [
        {"kind": "relabel", "node": 1, "label": "tome"},
        {"kind": "insert", "parent": 0, "xml": "<book><isbn/></book>", "at": 0},
        {"kind": "delete", "node": 4},
    ]
    assert [op_from_spec(spec) for spec in specs] == list(GROUP)
    with pytest.raises(StorageError):
        op_from_spec({"kind": "vacuum"})
    with pytest.raises(StorageError):
        op_from_spec({"kind": "relabel", "node": 1})  # missing label


# --------------------------------------------------------------------------- #
# Service write coalescing
# --------------------------------------------------------------------------- #


def test_service_coalesces_concurrent_updates_into_one_group(tmp_path):
    import asyncio

    from repro.service import QueryService

    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database, write_window=0.05,
                                max_write_batch=8) as service:
            before = durability.snapshot()
            results = await asyncio.gather(
                *[service.apply(op) for op in GROUP]
            )
            return results, durability.since(before), service.stats()

    results, delta, stats = asyncio.run(main())
    # Every rider resolves with the same shared group result...
    assert all(result is results[0] for result in results)
    assert isinstance(results[0], GroupCommitResult)
    assert results[0].n_ops == len(GROUP)
    # ...and the whole burst paid one group's durability budget.
    assert delta.data_fsyncs <= 2
    assert delta.pointer_swaps == 1
    assert delta.wal_appends == 1
    assert stats.write_batches == 1
    assert stats.coalesced_updates == len(GROUP)
    assert stats.largest_write_batch == len(GROUP)
    assert stats.updates == len(GROUP)
    assert database.generation == results[0].new_generation


def test_service_applies_an_op_sequence_as_one_group(tmp_path):
    """A caller-supplied sequence (the wire ``update`` op sends one) is a
    declared group: one generation, even with no write window."""
    import asyncio

    from repro.service import QueryService

    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database) as service:  # write_window=0
            before = durability.snapshot()
            result = await service.apply(list(GROUP))
            return result, durability.since(before)

    result, delta = asyncio.run(main())
    assert isinstance(result, GroupCommitResult)
    assert result.n_ops == len(GROUP)
    assert delta.pointer_swaps == 1
    assert delta.wal_appends == 1
    assert read_pointer(base).counter == 1 + len(GROUP)
    assert list_generations(base) == [0, result.new_generation]


def test_service_write_window_zero_keeps_per_update_commits(tmp_path):
    import asyncio

    from repro.service import QueryService

    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database) as service:  # write_window=0
            return await asyncio.gather(*[service.apply(op) for op in GROUP])

    results = asyncio.run(main())
    # The historical behaviour: one result and one commit per operation.
    assert [result.n_ops for result in results] == [1] * len(GROUP)
    assert read_pointer(base).counter == 1 + len(GROUP)
    assert len(list_generations(base)) == 1 + len(GROUP)


def test_service_mixed_group_keeps_explicit_retention(tmp_path):
    """Regression: a rider with an explicit ``retain_generations`` riding in
    a group with default-retention riders must still get its pruning.

    The old resolution (``max(retains) if all(r is not None) else None``)
    discarded retention for the whole group as soon as one rider used the
    default -- the common case, since most writers never pass it.
    """
    import asyncio

    from repro.service import QueryService

    base = _build(tmp_path)
    # An intermediate generation for the pruning to bite on (generation 0,
    # the original build, is never pruned).
    apply_update(base, Relabel(1, "pre"))
    database = Database.open(base)

    async def main():
        async with QueryService(database, write_window=0.05,
                                max_write_batch=8) as service:
            return await asyncio.gather(
                service.apply(Relabel(1, "tome")),  # default retention
                service.apply(Relabel(2, "x"), retain_generations=1),
                service.apply(Relabel(3, "y")),  # default retention
            )

    results = asyncio.run(main())
    # One shared group commit...
    assert all(result is results[0] for result in results)
    assert isinstance(results[0], GroupCommitResult)
    # ...whose explicit rider's retention was honoured: the intermediate
    # generation is pruned, leaving only the original build and the newest.
    assert list_generations(base) == [0, results[0].new_generation]


def test_service_isolates_a_poisoned_update_in_a_group(tmp_path):
    import asyncio

    from repro.service import QueryService

    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database, write_window=0.05,
                                max_write_batch=8) as service:
            return await asyncio.gather(
                service.apply(Relabel(1, "tome")),
                service.apply(DeleteSubtree(999)),  # poisoned
                service.apply(Relabel(2, "x")),
                return_exceptions=True,
            )

    first, poisoned, third = asyncio.run(main())
    assert isinstance(poisoned, StorageError)
    assert not isinstance(first, BaseException)
    assert not isinstance(third, BaseException)
    # The clean riders still landed (per-op fallback after the group failed).
    assert database.query(BOOKS, engine="disk").count() == 1
    assert database.query("QUERY :- V.Label[tome];", engine="disk").count() == 1
