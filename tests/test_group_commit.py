"""Group-commit semantics of :func:`repro.storage.update.apply_many`.

The contract under test: a group of N update operations lands as **one**
spliced generation whose files are byte-identical to what the same
operations produce applied one commit at a time (one group of N == N groups
of one: there is only one commit path) -- while every commit pays the same
bounded durability budget (at most 2 data fsyncs, exactly 1 pointer swap
and 1 WAL append, however large N is) and either commits whole or leaves
the database untouched.  Every write entry above storage -- engine,
collection, service, wire -- is a caller of that one routine, so the same
identity is checked through each of them.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main as cli_main
from repro.collection import Collection
from repro.engine import Database
from repro.errors import ServiceClosedError, ServiceOverloadedError, StorageError
from repro.service import ArbServer, QueryService, request_many
from repro.storage.build import build_database
from repro.storage.durability import durability
from repro.storage.generations import generation_base, list_generations, read_pointer
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    UpdateResult,
    apply_many,
    apply_to_tree,
    apply_update,
    op_from_spec,
)
from repro.storage.wal import wal_path
from repro.tree.unranked import UnrankedTree
from repro.tree.xml_io import parse_xml, serialize_xml

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


def _files_of(base: str) -> dict[str, bytes]:
    """Every file of the database -- pointer, WAL, all generations -- by
    name (the empty ``.lock`` sidecar aside: taking the lock creates it)."""
    directory = os.path.dirname(base)
    return {
        name: _file_bytes(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.startswith(os.path.basename(base) + ".") and not name.endswith(".lock")
    }


# --------------------------------------------------------------------------- #
# The write entries: each applies ``ops`` to a fresh database built from
# ``tree`` under ``tmp`` and returns the base path it wrote to
# --------------------------------------------------------------------------- #


def _built(tmp: str, tree) -> str:
    base = os.path.join(tmp, "grouped")
    build_database(tree, base)
    return base


def _through_storage(tmp, tree, ops, specs):
    base = _built(tmp, tree)
    apply_many(base, ops)
    return base


def _through_database(apply):
    def entry(tmp, tree, ops, specs):
        base = _built(tmp, tree)
        apply(Database.open(base), ops)
        return base

    return entry


def _through_collection(apply):
    def entry(tmp, tree, ops, specs):
        collection = Collection.create(os.path.join(tmp, "corpus"))
        collection.add_document(tree, doc_id="one")
        apply(collection, ops)
        record = collection.manifest.get("one")
        base = record.base_path(collection.root)
        pointer = read_pointer(base)
        assert (record.generation, record.counter) == (pointer.generation, pointer.counter)
        return base

    return entry


def _through_service(write_window: float, *, declared: bool):
    def entry(tmp, tree, ops, specs):
        base = _built(tmp, tree)

        async def main():
            async with QueryService(Database.open(base), write_window=write_window) as service:
                if declared:
                    await service.apply(ops)
                else:  # FIFO: the lane commits them in submission order
                    await asyncio.gather(*[service.apply(op) for op in ops])

        asyncio.run(main())
        return base

    return entry


def _through_wire(tmp, tree, ops, specs):
    base = _built(tmp, tree)

    async def main():
        server = ArbServer(Database.open(base), port=0)
        host, port = await server.start()
        try:
            (reply,) = await request_many(host, port, [{"op": "update", "ops": specs}])
            assert reply["ok"], reply
        finally:
            await server.stop()

    asyncio.run(main())
    return base


WRITE_ENTRIES = {
    "storage.apply_many": _through_storage,
    "Database.apply per op": _through_database(
        lambda database, ops: [database.apply(op) for op in ops]
    ),
    "Database.apply(sequence)": _through_database(lambda database, ops: database.apply(ops)),
    "Database.apply_many": _through_database(lambda database, ops: database.apply_many(ops)),
    "Collection.apply(sequence)": _through_collection(
        lambda collection, ops: collection.apply("one", ops)
    ),
    "Collection.apply_many": _through_collection(
        lambda collection, ops: collection.apply_many("one", ops)
    ),
    "QueryService.apply per op, window 0": _through_service(0.0, declared=False),
    "QueryService.apply per op, window > 0": _through_service(0.02, declared=False),
    "QueryService.apply(sequence), window 0": _through_service(0.0, declared=True),
    "QueryService.apply(sequence), window > 0": _through_service(0.02, declared=True),
    "wire update": _through_wire,
}


# --------------------------------------------------------------------------- #
# Group == sequence
# --------------------------------------------------------------------------- #


def test_group_is_byte_identical_to_sequential_applies(tmp_path):
    grouped = _build(tmp_path, "grouped")
    sequential = _build(tmp_path, "sequential")

    result = apply_many(grouped, list(GROUP))
    for op in GROUP:
        apply_update(sequential, op)

    assert isinstance(result, UpdateResult)
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


@pytest.mark.parametrize("entry", sorted(WRITE_ENTRIES))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_random_groups_equal_sequential_applies(entry, data):
    """ops through any write entry == N x apply_update(op) == the tree
    oracle, for random valid groups: same final bytes, same counter."""
    labels = ("a", "b", "c")
    tree = data.draw(unranked_trees(max_leaves=6))
    n_ops = data.draw(st.integers(1, 4))
    mirror = tree
    specs = []
    for _ in range(n_ops):
        nodes = list(mirror.iter_nodes())
        kinds = ["relabel", "insert"] + (["delete"] if len(nodes) > 1 else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "relabel":
            spec = {
                "kind": kind,
                "node": data.draw(st.integers(0, len(nodes) - 1)),
                "label": data.draw(st.sampled_from(labels)),
            }
        elif kind == "delete":
            spec = {"kind": kind, "node": data.draw(st.integers(1, len(nodes) - 1))}
        else:
            parent = data.draw(st.integers(0, len(nodes) - 1))
            spec = {
                "kind": kind,
                "parent": parent,
                "xml": serialize_xml(data.draw(unranked_trees(max_leaves=3))),
                "at": data.draw(st.integers(0, len(nodes[parent].children))),
            }
        specs.append(spec)
        mirror = apply_to_tree(mirror, op_from_spec(spec))
    ops = [op_from_spec(spec) for spec in specs]

    with tempfile.TemporaryDirectory() as tmp:
        sequential = os.path.join(tmp, "sequential")
        build_database(tree, sequential)
        for op in ops:
            apply_update(sequential, op)
        grouped = WRITE_ENTRIES[entry](tmp, tree, ops, specs)
        pointer = read_pointer(grouped)
        assert pointer.counter == read_pointer(sequential).counter == 1 + n_ops
        assert pointer.generation == read_pointer(sequential).generation
        for suffix in (".arb", ".lab", ".idx"):
            assert _generation_bytes(grouped, pointer.generation, suffix) == \
                _generation_bytes(sequential, pointer.generation, suffix), suffix
        assert Database.open(grouped).unranked_tree().to_nested() == mirror.to_nested()


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


def _apply_through_service(base: str, op):
    async def main():
        async with QueryService(Database.open(base)) as service:  # write_window=0
            return await service.apply(op)

    return asyncio.run(main())


@pytest.mark.parametrize("apply_one", [apply_update, _apply_through_service])
def test_single_update_pays_the_same_budget(tmp_path, apply_one):
    """A single update is a group of one: same protocol, same budget --
    committed directly or through the service's write lane."""
    base = _build(tmp_path)
    before = durability.snapshot()
    result = apply_one(base, GROUP[1])
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
    before = durability.snapshot()
    with pytest.raises(StorageError):
        apply_many(base, [Relabel(1, "tome"), DeleteSubtree(999)])
    assert durability.since(before).wal_appends == 0  # refused before the log
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


@pytest.mark.parametrize("retain", [0, -1, "2", 1.5, True])
def test_bad_retain_is_refused_before_anything_is_written(tmp_path, retain):
    """Regression: ``retain_generations=0`` used to commit the update and
    *then* raise from the pruning step -- a committed update reported as a
    failure."""
    base = _build(tmp_path)
    before = _files_of(base)
    with pytest.raises(StorageError, match="retain_generations"):
        apply_update(base, GROUP[1], retain_generations=retain)
    assert _files_of(base) == before


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
    assert isinstance(result, UpdateResult)
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
    # Decimal-digit strings are node ids too (what a shell script produces).
    assert op_from_spec({"kind": "delete", "node": "4"}) == DeleteSubtree(4)


#: Specs a lenient ``int()`` / ``str()`` / ``bool()`` coercion would accept
#: (1.7 and true are node 1, null is the label "None") or turn into a bare
#: ValueError / TypeError; each names the field it refuses.
BAD_SPECS = [
    ({"kind": "relabel", "node": 1.7, "label": "x"}, "node"),
    ({"kind": "relabel", "node": True, "label": "x"}, "node"),
    ({"kind": "relabel", "node": "abc", "label": "x"}, "node"),
    ({"kind": "relabel", "node": 1, "label": None}, "label"),
    ({"kind": "relabel", "node": 1, "label": "x", "text": "no"}, "text"),
    ({"kind": "delete", "node": None}, "node"),
    ({"kind": "insert", "parent": 0.0, "xml": "<y/>"}, "parent"),
    ({"kind": "insert", "parent": 0, "xml": ["<y/>"]}, "xml"),
    ({"kind": "insert", "parent": 0, "xml": "<y/>", "at": "z"}, "at"),
    ({"kind": "insert", "parent": 0, "xml": "<y/>", "text_mode": "bogus"}, "text_mode"),
    ({"kind": "insert", "parent": 0, "xml": "<y/>", "text_mode": None}, "text_mode"),
]


@pytest.mark.parametrize("spec,field", BAD_SPECS, ids=[f"{f}={s[f]!r}" for s, f in BAD_SPECS])
def test_mistyped_spec_is_refused_by_name_before_anything_is_written(tmp_path, capsys, spec, field):
    with pytest.raises(StorageError, match=f"field '{field}'"):
        op_from_spec(spec)
    # Through `arb update --group`, behind a valid first line: nothing commits.
    base = _build(tmp_path)
    before = _files_of(base)
    group = tmp_path / "group.jsonl"
    group.write_text(json.dumps({"kind": "relabel", "node": 2, "label": "ok"}) + "\n"
                     + json.dumps(spec) + "\n", encoding="utf-8")
    assert cli_main(["update", base, "--group", str(group)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and f"'{field}'" in captured.err
    assert "Traceback" not in captured.err
    assert _files_of(base) == before


#: Ops carrying a tag name the whitespace-separated `.lab` file cannot hold.
#: Registering it used to *commit* and shift every later tag index by one:
#: the next open answered ``unknown label index`` -- a bricked database.
EMPTY_LABEL_OPS = {
    "spec": lambda: op_from_spec({"kind": "relabel", "node": 1, "label": ""}),
    "Relabel": lambda: Relabel(1, ""),
    "insert-tree": lambda: InsertSubtree(0, UnrankedTree.from_nested(("x", ["y", ""]))),
}


@pytest.mark.parametrize("kind", sorted(EMPTY_LABEL_OPS))
def test_empty_label_is_refused_before_anything_is_written(tmp_path, capsys, kind):
    base = _build(tmp_path)
    before = _files_of(base)
    database = Database.open(base)
    for ops in ([EMPTY_LABEL_OPS[kind]()], [Relabel(2, "ok"), EMPTY_LABEL_OPS[kind]()]):
        with pytest.raises(StorageError, match="non-empty.*''"):
            database.apply_many(ops)
    assert cli_main(["update", base, "--relabel", "1", ""]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # Pointer, WAL (none was ever written) and every generation file.
    assert _files_of(base) == before
    assert Database.open(base).label(1) == "book"


def test_empty_label_is_refused_at_build(tmp_path):
    base = str(tmp_path / "doc")
    with pytest.raises(StorageError, match="non-empty"):
        Database.build(UnrankedTree.from_nested(("lib", ["book", ""])), base)
    assert not os.path.exists(base + ".gen")  # nothing to open was left behind


def test_wire_update_with_empty_label_is_refused_without_a_commit(tmp_path):
    base = _build(tmp_path)
    before = _files_of(base)

    async def main():
        server = ArbServer(Database.open(base), port=0, write_window=0.05)
        host, port = await server.start()
        try:
            return await request_many(host, port, [
                {"op": "update", "ops": [{"kind": "relabel", "node": 1, "label": ""}]},
                {"op": "query", "query": BOOKS},
            ])
        finally:
            await server.stop()

    refused, answer = asyncio.run(main())
    assert not refused["ok"] and refused["error_type"] == "StorageError", refused
    assert "non-empty" in refused["error"]
    assert answer["ok"] and answer["counter"] == 1 and answer["count"] == 2, answer
    assert _files_of(base) == before


def test_wire_update_with_mistyped_spec_is_refused_without_a_commit(tmp_path):
    base = _build(tmp_path)
    before = _files_of(base)

    async def main():
        server = ArbServer(Database.open(base), port=0, write_window=0.05)
        host, port = await server.start()
        try:
            return await request_many(host, port, [
                {"op": "update", "ops": [{"kind": "delete", "node": 2}, spec]}
                for spec, _ in BAD_SPECS
            ])
        finally:
            await server.stop()

    for reply, (_, field) in zip(asyncio.run(main()), BAD_SPECS):
        assert not reply["ok"] and reply["error_type"] == "StorageError", reply
        assert f"'{field}'" in reply["error"]
    assert _files_of(base) == before


# --------------------------------------------------------------------------- #
# Service write coalescing
# --------------------------------------------------------------------------- #


def test_service_coalesces_concurrent_updates_into_one_group(tmp_path):
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
    assert isinstance(results[0], UpdateResult)
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
    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database) as service:  # write_window=0
            before = durability.snapshot()
            result = await service.apply(list(GROUP))
            return result, durability.since(before)

    result, delta = asyncio.run(main())
    assert isinstance(result, UpdateResult)
    assert result.n_ops == len(GROUP)
    assert delta.pointer_swaps == 1
    assert delta.wal_appends == 1
    assert read_pointer(base).counter == 1 + len(GROUP)
    assert list_generations(base) == [0, result.new_generation]


def test_service_write_window_zero_keeps_per_update_commits(tmp_path):
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
    assert isinstance(results[0], UpdateResult)
    # ...whose explicit rider's retention was honoured: the intermediate
    # generation is pruned, leaving only the original build and the newest.
    assert list_generations(base) == [0, results[0].new_generation]


def test_service_isolates_a_poisoned_update_in_a_group(tmp_path):
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


# --------------------------------------------------------------------------- #
# At most once: what the service may and may not re-run
# --------------------------------------------------------------------------- #

#: Non-idempotent riders: applied twice, each leaves a different tree.
RIDERS = (DeleteSubtree(2), InsertSubtree(0, "<cd/>", position=0), Relabel(1, "tome"))


def _oracle(ops) -> object:
    tree = parse_xml(DOC, text_mode="ignore")
    for op in ops:
        tree = apply_to_tree(tree, op)
    return tree.to_nested()


def test_service_rider_with_bad_retain_is_refused_alone(tmp_path):
    """Regression: a rider with ``retain_generations=0`` made its group
    commit, *then* raise from pruning, and the "nothing was committed"
    isolation retry applied every rider a second time."""
    base = _build(tmp_path)
    database = Database.open(base)

    async def main():
        async with QueryService(database, write_window=0.05) as service:
            outcomes = await asyncio.gather(
                service.apply(RIDERS[0]),
                service.apply(RIDERS[2], retain_generations=0),
                service.apply(RIDERS[1]),
                return_exceptions=True,
            )
            return outcomes, service.stats()

    (first, refused, third), stats = asyncio.run(main())
    assert isinstance(refused, StorageError) and "retain_generations" in str(refused)
    assert first is third and first.n_ops == 2
    assert read_pointer(base).counter == 1 + 2
    assert stats.isolation_retries == 0
    assert database.unranked_tree().to_nested() == _oracle(RIDERS[:2])


def test_service_never_retries_a_group_that_committed(tmp_path, monkeypatch):
    """A step after the pointer swap fails: the group is on disk, so every
    rider gets the error and none is applied again."""
    base = _build(tmp_path)
    database = Database.open(base)

    def failing_prune(base_path, retain):
        raise StorageError("injected post-commit failure")

    monkeypatch.setattr("repro.storage.update.prune_generations", failing_prune)

    async def main():
        async with QueryService(database, write_window=0.05) as service:
            outcomes = await asyncio.gather(
                *[service.apply(op, retain_generations=2) for op in RIDERS], return_exceptions=True
            )
            return outcomes, service.stats()

    outcomes, stats = asyncio.run(main())
    assert all(isinstance(outcome, StorageError) for outcome in outcomes)
    assert read_pointer(base).counter == 1 + len(RIDERS)
    assert stats.isolation_retries == 0
    assert database.unranked_tree().to_nested() == _oracle(RIDERS)


def test_wire_update_with_bad_retain_is_refused_at_submit(tmp_path):
    base = _build(tmp_path)
    before = _files_of(base)
    update = {"op": "update", "ops": [{"kind": "delete", "node": 2}]}

    async def main():
        server = ArbServer(Database.open(base), port=0, write_window=0.05)
        host, port = await server.start()
        try:
            return await request_many(host, port, [{**update, "retain": 0}, {**update, "retain": "2"}])
        finally:
            await server.stop()

    for reply in asyncio.run(main()):
        assert not reply["ok"] and reply["error_type"] == "StorageError", reply
        assert "retain_generations" in reply["error"]
    assert _files_of(base) == before


@pytest.mark.parametrize("write_window", [0.0, 0.05])
def test_service_rejected_lone_update_writes_nothing(tmp_path, write_window):
    """A group of one that cannot compile is an error, not a retry."""
    base = _build(tmp_path)
    before = _files_of(base)

    async def main():
        async with QueryService(Database.open(base), write_window=write_window) as service:
            with pytest.raises(StorageError, match="out of range"):
                await service.apply(DeleteSubtree(999))
            return service.stats()

    stats = asyncio.run(main())
    assert stats.isolation_retries == 0 and stats.updates == 0
    assert _files_of(base) == before


def test_service_admits_updates_under_max_pending(tmp_path):
    """A flood of updates past the bound gets typed refusals, and no
    refused update is committed."""
    base = _build(tmp_path)
    database = Database.open(base)
    flood = [InsertSubtree(0, "<cd/>", position=0)] * 10

    async def main():
        async with QueryService(database, write_window=0.05, max_pending=4) as service:
            tasks = [asyncio.ensure_future(service.apply(op)) for op in flood]
            await asyncio.sleep(0)  # every apply runs up to its queue or its refusal
            pending = service.pending
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, pending, service.stats()

    outcomes, pending, stats = asyncio.run(main())
    refused = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
    assert pending == 4
    assert len(refused) == 6 and stats.rejected == 6
    assert all(isinstance(outcome, ServiceOverloadedError) for outcome in refused)
    assert stats.updates == 4
    assert read_pointer(base).counter == 1 + 4
    assert database.n_nodes == 6 + 4


def test_service_refuses_updates_once_it_stops_accepting(tmp_path):
    """stop() is two-phase; an update arriving after phase one must not
    enqueue behind lanes that are about to drain."""
    base = _build(tmp_path)
    database = Database.open(base)
    before = _files_of(base)
    release = threading.Event()

    class SlowCache:
        def lookup(self, query, **options):
            release.wait(timeout=30)
            return database.plan_cache.lookup(query, **options)

    async def main():
        service = QueryService(database, write_window=0.05)
        service.plan_cache = SlowCache()
        await service.start()
        reader = asyncio.ensure_future(service.submit(BOOKS))
        await asyncio.sleep(0.01)  # the read is past admission, compiling
        stopping = asyncio.ensure_future(service.stop())
        await asyncio.sleep(0.01)  # stop() waits for that admission to finish
        with pytest.raises(ServiceClosedError):
            await service.apply(GROUP[0])
        release.set()
        answer = await reader
        await stopping
        return answer

    assert asyncio.run(main()).count() == 2
    assert _files_of(base) == before
