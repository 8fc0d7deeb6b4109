"""Unit behaviour of the copy-on-write update subsystem (`storage/update.py`).

Pinned here: the splice arithmetic of every operation (relabel, delete,
insert at every child position), generation-pointer mechanics (snapshots,
refresh, pruning, backward compatibility with pointer-less databases), the
per-generation analysis cache, collection-level updates through the
manifest, and the ``arb update`` / ``arb stats`` CLI verbs.  The crash,
property and soak suites build on these basics.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.cli import main as cli_main
from repro.collection import Collection
from repro.engine import Database
from repro.errors import StorageError
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.generations import (
    list_generations,
    prune_generations,
    read_pointer,
    resolve_generation,
)
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_to_tree,
    apply_update,
)
from repro.tree.xml_io import parse_xml

DOC = "<lib><book><a/><b/></book><dvd/><book/></lib>"
# Pre-order ids: lib=0, book=1, a=2, b=3, dvd=4, book=5.

BOOKS = "QUERY :- V.Label[book];"


def _build(tmp_path, xml: str = DOC, name: str = "doc") -> str:
    base = str(tmp_path / name)
    build_database(xml, base, text_mode="ignore")
    return base


def _labels_and_flags(base: str) -> list[tuple[str, bool, bool]]:
    """The decoded record stream: the full observable content of a generation."""
    database = ArbDatabase.open(base)
    return [
        (database.label_name(record), record.has_first_child, record.has_second_child)
        for record in database.records_forward()
    ]


# --------------------------------------------------------------------------- #
# Relabel
# --------------------------------------------------------------------------- #


def test_relabel_changes_one_node_and_nothing_else(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    before = _labels_and_flags(base)
    result = db.apply(Relabel(4, "book"))
    assert db.query(BOOKS, engine="disk").count() == 3
    after = _labels_and_flags(base)
    assert after[4][0] == "book"
    assert [row[1:] for row in after] == [row[1:] for row in before]  # flags intact
    assert result.statistics.records_reencoded == 1
    assert result.old_generation == 0
    assert result.new_generation == db.generation > 0


def test_relabel_registers_new_tag(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply(Relabel(4, "magazine"))
    assert db.query("QUERY :- V.Label[magazine];", engine="disk").count() == 1
    assert db.label(4) == "magazine"


def test_relabel_text_character(tmp_path):
    base = str(tmp_path / "doc")
    build_database("<r>x</r>", base, text_mode="chars")
    db = Database.open(base)
    db.apply(Relabel(1, "y", is_text=True))
    assert db.query("QUERY :- V.Label[y];", engine="disk").count() == 1
    assert db.disk.char_nodes == 1 and db.disk.element_nodes == 1


@pytest.mark.parametrize(
    "preceding",
    [
        Relabel(4, "book"),
        InsertSubtree(0, "<cd><track/></cd>", position=1),
        DeleteSubtree(1),
        [Relabel(4, "book"), InsertSubtree(1, "<c/>"), DeleteSubtree(5)],
    ],
    ids=["relabel", "insert", "delete", "mixed-group"],
)
def test_consecutive_relabels_hit_the_analysis_cache(tmp_path, preceding):
    """Whatever kind of commit came before, it left its structure behind."""
    base = _build(tmp_path)
    db = Database.open(base)
    first = db.apply_many(preceding) if isinstance(preceding, list) else db.apply(preceding)
    second = db.apply(Relabel(2, "c"))
    assert not first.statistics.analysis_cache_hit
    assert second.statistics.analysis_cache_hit
    # No rescan: the splice's copy is everything the second commit read.
    assert second.statistics.io.bytes_read == second.statistics.bytes_copied
    assert second.statistics.io.seeks < first.statistics.io.seeks


def test_relabel_reads_one_analysis_scan_plus_one_copy_per_relabel(tmp_path):
    """The commit's read cost in closed form: ``_analyse`` scans the file
    once (first commit on a base only), and ``_splice`` copies everything
    but the re-encoded or removed records in page-sized chunks, one seek per
    contiguous range -- once per commit, however many operations it holds."""
    page = 64
    base = str(tmp_path / "doc")
    build_database("<r>" + "<a/><b/>" * 100 + "</r>", base, text_mode="ignore", page_size=page)
    db = Database.open(base, page_size=page)
    size, record = db.disk.file_size(), db.disk.record_size
    assert size > 4 * page

    def chunks(length: int) -> int:
        return -(-length // page)

    def splice(*holes: tuple[int, int]) -> tuple[int, int, int]:
        """What ``_splice`` reads of a ``size``-byte file copying around
        ``holes``: ascending ``(first record, records not copied)``."""
        pages = seeks = copied = position = 0
        for start, length in [*holes, (size // record, 0)]:
            gap = start * record - position
            pages, seeks, copied = pages + chunks(gap), seeks + (gap > 0), copied + gap
            position = (start + length) * record
        return pages, seeks, copied

    def read_cost(result) -> tuple[int, int, int]:
        io = result.statistics.io
        return io.pages_read, io.seeks, io.bytes_read

    first, cached, at_root = (db.apply(Relabel(node, "c")) for node in (70, 150, 0))
    analysis = (chunks(size), 1, size)
    assert read_cost(first) == tuple(a + b for a, b in zip(analysis, splice((70, 1))))
    assert cached.statistics.analysis_cache_hit and read_cost(cached) == splice((150, 1))
    assert read_cost(at_root) == splice((0, 1)) == (chunks(size - record), 1, size - record)
    assert first.statistics.bytes_copied == size - record
    # A group of N relabels behind the cached analysis is one pass reading
    # F - N * record bytes (it was the sum of N splices: N * (F - record)).
    nodes = (10, 20, 21, 199)
    group = db.apply_many([Relabel(node, "e") for node in nodes])
    assert group.statistics.analysis_cache_hit
    assert read_cost(group) == splice((10, 1), (20, 2), (199, 1))
    assert group.statistics.io.bytes_read == size - len(nodes) * record
    assert group.statistics.bytes_copied == size - len(nodes) * record
    # A mixed group is one pass too.  In the old file's coordinates: the
    # insert lands before record 1 (copying nothing away), record 10 is
    # re-encoded, and node 50 of the post-insert state is old record 48.
    mixed = db.apply_many(
        [Relabel(10, "f"), InsertSubtree(0, "<x><y/></x>", position=0), DeleteSubtree(50)]
    )
    assert mixed.statistics.analysis_cache_hit
    assert read_cost(mixed) == splice((1, 0), (10, 1), (48, 1))
    assert mixed.statistics.bytes_copied == size - 2 * record <= size
    assert mixed.statistics.records_reencoded == 2 + 1
    assert mixed.arb_bytes == size + 2 * record - record


# --------------------------------------------------------------------------- #
# Delete
# --------------------------------------------------------------------------- #


def test_delete_subtree_with_following_sibling(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply(DeleteSubtree(1))  # first <book> incl. children; <dvd> slides in
    assert db.n_nodes == 3
    assert _labels_and_flags(base) == [
        ("lib", True, False),
        ("dvd", False, True),
        ("book", False, False),
    ]


def test_delete_last_child_clears_sibling_flag(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply(DeleteSubtree(5))  # the trailing <book/>: dvd loses its sibling flag
    assert _labels_and_flags(base) == [
        ("lib", True, False),
        ("book", True, True),
        ("a", False, True),
        ("b", False, False),
        ("dvd", False, False),
    ]


def test_delete_only_child_clears_parent_flag(tmp_path):
    base = _build(tmp_path, xml="<r><a><b/></a></r>")
    db = Database.open(base)
    db.apply(DeleteSubtree(2))
    assert _labels_and_flags(base) == [("r", True, False), ("a", False, False)]


def test_delete_root_is_rejected(tmp_path):
    base = _build(tmp_path)
    with pytest.raises(StorageError, match="root"):
        apply_update(base, DeleteSubtree(0))
    assert read_pointer(base).generation == 0  # nothing happened


def test_delete_out_of_range_is_rejected_before_any_write(tmp_path):
    def database_files():
        # Ignore the writers' advisory .lock sidecar: it is not data.
        return [name for name in sorted(os.listdir(tmp_path))
                if not name.endswith(".lock")]

    base = _build(tmp_path)
    files_before = database_files()
    with pytest.raises(StorageError, match="out of range"):
        apply_update(base, DeleteSubtree(99))
    assert database_files() == files_before


# --------------------------------------------------------------------------- #
# Insert
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("position", [0, 1, 2, 3, None])
def test_insert_at_every_child_position_matches_the_tree_mirror(tmp_path, position):
    base = _build(tmp_path)
    db = Database.open(base)
    op = InsertSubtree(0, "<cd><track/></cd>", position=position)
    db.apply(op)
    mirror = apply_to_tree(parse_xml(DOC, text_mode="ignore"), op)
    build_database(mirror, str(tmp_path / "mirror"))
    assert _labels_and_flags(base) == _labels_and_flags(str(tmp_path / "mirror"))
    assert db.n_nodes == 8


def test_insert_into_leaf_sets_first_child_flag(tmp_path):
    base = _build(tmp_path, xml="<r><a/></r>")
    db = Database.open(base)
    db.apply(InsertSubtree(1, "<b/>"))
    assert _labels_and_flags(base) == [
        ("r", True, False),
        ("a", True, False),
        ("b", False, False),
    ]


def test_insert_position_out_of_range(tmp_path):
    base = _build(tmp_path)
    with pytest.raises(StorageError, match="position"):
        apply_update(base, InsertSubtree(0, "<x/>", position=4))


def test_insert_tree_source(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply(InsertSubtree(4, parse_xml("<region/>", text_mode="ignore")))
    assert db.label(5) == "region"


# --------------------------------------------------------------------------- #
# Generations, snapshots, refresh, pruning
# --------------------------------------------------------------------------- #


def test_open_handles_are_snapshots(tmp_path):
    base = _build(tmp_path)
    old = Database.open(base)
    writer = Database.open(base)
    writer.apply(Relabel(4, "book"))
    # The handle opened before the update still answers from its snapshot...
    assert old.query(BOOKS, engine="disk").count() == 2
    assert old.generation == 0
    # ...new opens and the writer see the new generation...
    assert Database.open(base).query(BOOKS, engine="disk").count() == 3
    # ...and refresh moves the old handle forward.
    old.refresh()
    assert old.generation == writer.generation
    assert old.query(BOOKS, engine="disk").count() == 3


def test_pinned_generation_open(tmp_path):
    base = _build(tmp_path)
    Database.open(base).apply(Relabel(4, "book"))
    gen, _ = resolve_generation(base)
    pinned = Database.open(base, generation=0)
    assert pinned.query(BOOKS, engine="disk").count() == 2
    assert Database.open(base, generation=gen).query(BOOKS, engine="disk").count() == 3


def test_apply_sequence_advances_one_generation_per_op(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    results = db.apply([Relabel(4, "book"), DeleteSubtree(5), InsertSubtree(0, "<cd/>")])
    assert [r.old_generation for r in results[1:]] == [r.new_generation for r in results[:-1]]
    assert db.generation == results[-1].new_generation
    assert len(list_generations(base)) == 4  # generation 0 plus three updates


def test_apply_sequence_refuses_to_continue_past_a_foreign_writer(tmp_path, monkeypatch):
    base = _build(tmp_path)
    db = Database.open(base)
    refresh = Database.refresh

    def refresh_after_a_foreign_write(self):
        monkeypatch.setattr(Database, "refresh", refresh)  # once
        apply_update(base, Relabel(0, "shelf"))
        return refresh(self)

    monkeypatch.setattr(Database, "refresh", refresh_after_a_foreign_write)
    with pytest.raises(StorageError, match="conflict"):
        db.apply([Relabel(4, "book"), DeleteSubtree(1)])
    # The first operation and the foreign one landed; the second operation's
    # ids addressed a state that was no longer current, so it did not.
    assert read_pointer(base).counter == 1 + 2
    assert db.n_nodes == 6


def test_counter_survives_rebuild_and_never_reuses_generation_numbers(tmp_path):
    base = _build(tmp_path)
    apply_update(base, Relabel(4, "book"))
    counter_before = read_pointer(base).counter
    build_database(DOC, base, text_mode="ignore")  # rebuild in place
    pointer = read_pointer(base)
    assert pointer.generation == 0
    assert pointer.counter == counter_before + 1
    # The rebuild started a fresh lineage: the superseded generation files
    # are gone, so they can never be mistaken for this document's history.
    assert list_generations(base) == [0]
    result = apply_update(base, Relabel(4, "book"))
    assert result.new_generation > counter_before  # numbers never recycled


def test_concurrent_writers_serialize(tmp_path):
    import threading

    base = _build(tmp_path)
    errors: list[BaseException] = []

    def writer(labels):
        try:
            for label in labels:
                apply_update(base, Relabel(4, label))
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(["m", "n", "o"],)),
        threading.Thread(target=writer, args=(["p", "q", "r"],)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Every apply landed its own generation: 6 updates after the build.
    pointer = read_pointer(base)
    assert pointer.counter == 1 + 6
    database = Database.open(base)
    assert database.n_nodes == 6
    assert database.label(4) in {"o", "r"}  # one writer's last word


def test_stale_handle_apply_is_refused(tmp_path):
    base = _build(tmp_path)
    first = Database.open(base)
    second = Database.open(base)
    first.apply(InsertSubtree(0, "<cd/>", position=0))  # ids shift by one
    # Second's node ids were derived from generation 0; applying them blind
    # would mutate the wrong node, so the conflict is refused instead.
    with pytest.raises(StorageError, match="conflict"):
        second.apply(Relabel(4, "book"))
    second.refresh()
    second.apply(Relabel(5, "book"))  # the dvd, at its post-insert id
    assert Database.open(base).query(BOOKS, engine="disk").count() == 3


def test_rebuild_is_detected_by_refresh_and_apply(tmp_path):
    # An in-place rebuild keeps the generation number at 0 but rewrites the
    # files; the change counter betrays it to stale handles.
    base = _build(tmp_path)
    handle = Database.open(base)
    build_database("<lib><zine/></lib>", base, text_mode="ignore")
    with pytest.raises(StorageError, match="conflict"):
        handle.apply(Relabel(1, "book"))  # ids belong to the old document
    handle.refresh()
    assert handle.n_nodes == 2
    assert handle.label(1) == "zine"
    handle.apply(Relabel(1, "book"))
    assert handle.query(BOOKS, engine="disk").count() == 1


def test_update_through_generation_suffixed_path_advances_the_base(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply(Relabel(4, "book"))
    # Updating via the physical generation base (what db.disk.base_path is)
    # must advance the logical base, never fork a private lineage.
    result = apply_update(db.disk.base_path, Relabel(2, "book"))
    assert result.base_path == base
    assert Database.open(base).query(BOOKS, engine="disk").count() == 4
    assert not os.path.exists(db.disk.base_path + ".gen")


def test_rebuild_waits_for_writer_lock(tmp_path):
    # A rebuild and an update use one writer lock per base: their change
    # counters can never collide.
    base = _build(tmp_path)
    apply_update(base, Relabel(4, "x"))
    counter = read_pointer(base).counter
    build_database(DOC, base, text_mode="ignore")
    assert read_pointer(base).counter == counter + 1


def test_collection_apply_sequence_failure_keeps_manifest_current(tmp_path):
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    collection.add_document(DOC, doc_id="one", text_mode="ignore")
    with pytest.raises(StorageError, match="out of range"):
        collection.apply("one", [Relabel(4, "book"), DeleteSubtree(99)])
    # The first operation landed and the manifest points at it -- collection
    # queries and direct opens agree on the document's current state.
    entry = collection.manifest.get("one")
    assert entry.generation == read_pointer(entry.base_path(root)).generation > 0
    assert collection.query(BOOKS).count() == 3


def test_prune_keeps_current_and_generation_zero(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    db.apply([Relabel(4, "x"), Relabel(4, "y"), Relabel(4, "z")])
    current = db.generation
    deleted = prune_generations(base, retain=1)
    remaining = list_generations(base)
    assert current in remaining and 0 in remaining
    assert all(gen not in remaining for gen in deleted)
    assert db.query("QUERY :- V.Label[z];", engine="disk").count() == 1


def test_retain_generations_on_apply(tmp_path):
    base = _build(tmp_path)
    db = Database.open(base)
    for label in ("u", "v", "w", "x"):
        db.apply(Relabel(4, label), retain_generations=2)
    assert len(list_generations(base)) == 3  # gen 0 + current + one predecessor


def test_pointerless_databases_keep_working(tmp_path):
    base = _build(tmp_path)
    os.remove(base + ".gen")  # a database from before the update era
    db = Database.open(base)
    assert db.generation == 0
    assert db.query(BOOKS, engine="disk").count() == 2
    db.apply(Relabel(4, "book"))  # first update bootstraps the pointer
    assert db.query(BOOKS, engine="disk").count() == 3


def test_update_may_not_empty_the_database(tmp_path):
    base = str(tmp_path / "doc")
    build_database("<r/>", base, text_mode="ignore")
    with pytest.raises(StorageError):
        apply_update(base, DeleteSubtree(0))


def test_meta_records_lineage(tmp_path):
    base = _build(tmp_path)
    result = apply_update(base, Relabel(4, "book"))
    _, gen_base = resolve_generation(base)
    with open(gen_base + ".meta", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    assert meta["generation"] == result.new_generation
    assert meta["parent_generation"] == 0
    assert meta["counter"] == result.counter
    assert meta["n_nodes"] == 6


def test_plan_cache_hits_survive_updates_with_correct_answers(tmp_path):
    # Plans are document-independent: the same cached plan must keep
    # answering correctly across generations (this is why plan-cache keys
    # need no generation component, unlike page and analysis caches).
    base = _build(tmp_path)
    db = Database.open(base)
    first = db.query(BOOKS, engine="disk")
    assert first.statistics.plan_cache_misses + first.statistics.plan_cache_hits == 1
    db.apply(Relabel(4, "book"))
    second = db.query(BOOKS, engine="disk")
    assert second.statistics.plan_cache_hits == 1
    assert second.count() == 3


# --------------------------------------------------------------------------- #
# Collections
# --------------------------------------------------------------------------- #


def test_collection_apply_advances_manifest_and_answers(tmp_path):
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    collection.add_document(DOC, doc_id="one", text_mode="ignore")
    collection.add_document("<lib><book/></lib>", doc_id="two", text_mode="ignore")
    before = collection.query(BOOKS).count()
    result = collection.apply("one", Relabel(4, "book"))
    entry = collection.manifest.get("one")
    assert entry.generation == result.new_generation
    assert entry.n_nodes == 6
    assert collection.query(BOOKS).count() == before + 1
    # A collection handle opened before the update pinned the old manifest
    # generations -- its answers are a consistent pre-update snapshot.
    reopened = Collection.open(root)
    assert reopened.query(BOOKS).count() == before + 1  # reads the saved manifest
    assert reopened.manifest.get("one").generation == result.new_generation


def test_concurrent_applies_to_two_documents_lose_no_manifest_update(tmp_path):
    """Two threads commit to different documents through one collection:
    every commit and its manifest save run under the collection's writer
    lock, so neither thread's save rolls back the other's generations."""
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    n_ops = 8
    for doc_id in ("one", "two"):
        collection.add_document("<lib>" + "<book/>" * n_ops + "</lib>", doc_id=doc_id, text_mode="ignore")
    errors = []

    def relabel_every_book(doc_id):
        try:
            for node in range(1, n_ops + 1):
                collection.apply(doc_id, Relabel(node, "tome"))
        except Exception as error:  # surfaced below, not lost in the thread
            errors.append(error)

    threads = [threading.Thread(target=relabel_every_book, args=(doc_id,)) for doc_id in ("one", "two")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two writers as finely as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    reopened = Collection.open(root)
    for doc_id in ("one", "two"):
        entry = reopened.manifest.get(doc_id)
        base = entry.base_path(root)
        database = Database.open(base)  # the document's newest generation
        assert (entry.generation, entry.counter) == (database.generation, read_pointer(base).counter)
        assert database.query("QUERY :- V.Label[tome];", engine="disk").count() == n_ops
        assert database.query(BOOKS, engine="disk").count() == 0
        database.close()
    assert reopened.query("QUERY :- V.Label[tome];").count() == 2 * n_ops


def test_collection_snapshot_isolation_across_open_handles(tmp_path):
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    collection.add_document(DOC, doc_id="one", text_mode="ignore")
    old_handle = Collection.open(root)
    collection.apply("one", Relabel(4, "book"))
    # The old handle's manifest still pins generation 0 for the document.
    assert old_handle.query(BOOKS).count() == 2
    assert collection.query(BOOKS).count() == 3


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def test_cli_update_relabel_and_stats(tmp_path, capsys):
    base = _build(tmp_path)
    assert cli_main(["update", base, "--relabel", "4", "book"]) == 0
    out = capsys.readouterr().out
    assert "generation      : 0 ->" in out
    assert "1 records re-encoded" in out
    assert cli_main(["stats", base]) == 0
    out = capsys.readouterr().out
    assert "generation   :" in out and "change counter" in out
    assert Database.open(base).query(BOOKS, engine="disk").count() == 3


def test_cli_update_delete_insert_and_retain(tmp_path, capsys):
    base = _build(tmp_path)
    assert cli_main(["update", base, "--delete", "5"]) == 0
    fragment = tmp_path / "fragment.xml"
    fragment.write_text("<cd><track/></cd>", encoding="utf-8")
    assert cli_main(["update", base, "--insert", "0", str(fragment),
                     "--at", "0", "--retain", "1"]) == 0
    capsys.readouterr()
    db = Database.open(base)
    assert db.label(1) == "cd"
    assert db.n_nodes == 7
    assert len(list_generations(base)) == 2  # gen 0 + current only


def test_cli_update_error_reports_cleanly(tmp_path, capsys):
    base = _build(tmp_path)
    assert cli_main(["update", base, "--delete", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    # A non-numeric node id is a clean CLI error too, not a traceback.
    assert cli_main(["update", base, "--relabel", "x", "book"]) == 1
    assert "node id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,names",
    [
        (["update", "{base}", "--group", "{bad}"], "--group line 2 is not JSON"),
        (["update", "{base}", "--group", "{missing}.jsonl"], "{missing}.jsonl"),
        (["query", "{base}", "-f", "{missing}.tmnf"], "{missing}.tmnf"),
        (["build", "{missing}.xml", "{base}-out"], "{missing}.xml"),
        (["collection", "build", "{base}-corpus", "{missing}.xml"], "{missing}.xml"),
    ],
    ids=["group-not-json", "group-missing", "program-file-missing", "build-missing",
         "collection-build-missing"],
)
def test_cli_unreadable_input_file_is_an_error_not_a_traceback(tmp_path, capsys, argv, names):
    base = _build(tmp_path)
    before = read_pointer(base)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "relabel", "node": 4, "label": "book"}\nnot json\n', encoding="utf-8")
    fill = {"base": base, "bad": str(bad), "missing": str(tmp_path / "nonexistent")}
    assert cli_main([arg.format(**fill) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and names.format(**fill) in captured.err
    assert "Traceback" not in captured.err
    assert read_pointer(base) == before


def test_database_named_like_a_generation_is_its_own_base(tmp_path):
    # A base that merely *looks* like a generation file ("snapshot.g2") with
    # no parent base on disk is treated as its own logical database.
    base = str(tmp_path / "snapshot.g2")
    build_database(DOC, base, text_mode="ignore")
    db = Database.open(base)
    assert db.generation == 0
    assert db.disk.logical_base_path == base
    db.apply(Relabel(4, "book"))  # updates work against its own pointer
    assert Database.open(base).query(BOOKS, engine="disk").count() == 3
