"""Tests for the Arb storage model: formats, build, scans, paging."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import EvaluationError, StorageError, StorageFormatError
from repro.plan import PlanCache
from repro.storage import (
    ArbDatabase,
    DatabaseBuilder,
    LabelTable,
    PagedReader,
    PagedWriter,
    build_database,
    decode_node,
    encode_node,
)
from repro.storage.paging import BackwardPagedWriter, IOStatistics
from repro.storage.records import decode_event, encode_event, flag_masks
from repro.tree import BinaryTree, parse_xml
from tests.conftest import random_unranked_tree


class TestRecords:
    def test_node_record_round_trip(self):
        for label_index in (0, 1, 255, 256, 4000, (1 << 14) - 1):
            for first in (False, True):
                for second in (False, True):
                    data = encode_node(label_index, first, second)
                    assert len(data) == 2
                    record = decode_node(data)
                    assert record.label_index == label_index
                    assert record.has_first_child is first
                    assert record.has_second_child is second

    def test_node_record_larger_k(self):
        data = encode_node(100_000, True, False, record_size=3)
        record = decode_node(data, record_size=3)
        assert record.label_index == 100_000 and record.has_first_child

    def test_label_index_overflow_rejected(self):
        with pytest.raises(StorageFormatError):
            encode_node(1 << 14, False, False)

    def test_event_round_trip(self):
        for label_index in (0, 77, 300, (1 << 15) - 1):
            for is_end in (False, True):
                index, end = decode_event(encode_event(label_index, is_end))
                assert (index, end) == (label_index, is_end)

    def test_decode_wrong_length(self):
        with pytest.raises(StorageFormatError):
            decode_node(b"\x00")


class TestLabelTable:
    def test_characters_use_reserved_indexes(self):
        table = LabelTable()
        assert table.index_of("A", is_text=True) == ord("A")
        assert table.name_of(ord("A")) == "A"
        assert table.is_character_index(ord("A"))

    def test_tags_start_at_256(self):
        table = LabelTable()
        assert table.index_of("gene") == 256
        assert table.index_of("sequence") == 257
        assert table.index_of("gene") == 256  # stable
        assert table.name_of(257) == "sequence"
        assert table.n_tags == 2

    def test_save_and_load(self, tmp_path):
        table = LabelTable()
        for name in ("alpha", "beta", "gamma"):
            table.index_of(name)
        path = str(tmp_path / "x.lab")
        table.save(path)
        loaded = LabelTable.load(path)
        assert loaded.name_of(256) == "alpha"
        assert loaded.index_of("gamma") == 258
        assert loaded.n_tags == 3

    def test_overflow(self):
        table = LabelTable(max_index=257)
        table.index_of("a1")
        table.index_of("a2")
        with pytest.raises(StorageError):
            table.index_of("a3")

    def test_whitespace_in_tag_rejected(self):
        with pytest.raises(StorageError):
            LabelTable().index_of("bad tag")


class TestPaging:
    def test_forward_round_trip(self, tmp_path):
        path = str(tmp_path / "data.bin")
        records = [bytes([i % 256, (i * 7) % 256]) for i in range(5000)]
        with PagedWriter(path, page_size=128) as writer:
            for record in records:
                writer.write(record)
        reader = PagedReader(path, page_size=128)
        assert list(reader.records_forward(2)) == records

    def test_backward_round_trip(self, tmp_path):
        path = str(tmp_path / "data.bin")
        records = [bytes([i % 256, (i * 3) % 256]) for i in range(3333)]
        with PagedWriter(path, page_size=256) as writer:
            for record in records:
                writer.write(record)
        reader = PagedReader(path, page_size=256)
        assert list(reader.records_backward(2)) == list(reversed(records))

    def test_backward_writer_produces_forward_readable_file(self, tmp_path):
        path = str(tmp_path / "back.bin")
        records = [i.to_bytes(4, "big") for i in range(1000)]
        with BackwardPagedWriter(path, total_size=4000, page_size=64) as writer:
            for record in reversed(records):
                writer.write(record)
        reader = PagedReader(path)
        assert list(reader.records_forward(4)) == records

    def test_backward_writer_underflow_detected(self, tmp_path):
        path = str(tmp_path / "short.bin")
        writer = BackwardPagedWriter(path, total_size=8)
        writer.write(b"\x00" * 4)
        with pytest.raises(StorageError):
            writer.close()

    def test_io_statistics_are_counted(self, tmp_path):
        path = str(tmp_path / "data.bin")
        stats = IOStatistics()
        with PagedWriter(path, page_size=64, stats=stats) as writer:
            writer.write(b"\x01" * 1024)
        assert stats.bytes_written == 1024
        assert stats.pages_written == 1024 // 64
        reader = PagedReader(path, page_size=64, stats=stats)
        list(reader.records_forward(2))
        assert stats.bytes_read == 1024
        assert stats.seeks == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            PagedReader(str(tmp_path / "nope.bin"))


class TestBuildAndOpen:
    @pytest.mark.parametrize("record_size", [1, 0, -2, 2.0, True], ids=repr)
    def test_record_size_that_cannot_hold_a_tag_is_refused_before_any_file(self, tmp_path, record_size):
        with pytest.raises(StorageError, match=r"record_size must be an integer >= 2"):
            build_database("<a><b/></a>", str(tmp_path / "doc"), record_size=record_size)
        assert os.listdir(tmp_path) == []

    def test_build_from_xml_and_reload(self, tmp_path):
        document = "<gene><seq>ACG</seq><seq>T</seq></gene>"
        base = str(tmp_path / "genes")
        stats = build_database(document, base, name="genes")
        assert stats.element_nodes == 3  # gene + 2 seq
        assert stats.char_nodes == 4  # A C G T
        assert stats.n_tags == 2
        # Two bytes per node, two events of two bytes per node.
        assert stats.arb_file_size == 2 * stats.total_nodes
        assert stats.evt_file_size == 2 * stats.arb_file_size
        assert os.path.exists(base + ".arb") and os.path.exists(base + ".lab")
        # The temporary event file is removed by default.
        assert not os.path.exists(base + ".evt")

        database = ArbDatabase.open(base)
        assert database.n_nodes == stats.total_nodes
        tree = database.to_binary_tree()
        expected = BinaryTree.from_unranked(parse_xml(document))
        assert tree.labels == expected.labels
        assert tree.first_child == expected.first_child
        assert tree.second_child == expected.second_child

    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            DatabaseBuilder().build_from_events(iter(()), str(tmp_path / "empty"))

    def test_open_missing_database(self, tmp_path):
        with pytest.raises(StorageError):
            ArbDatabase.open(str(tmp_path / "missing"))

    @pytest.mark.parametrize(
        "meta",
        ["", "[1]", "{}", '{"record_size": "x", "n_nodes": 2}'],
        ids=["empty", "list", "no-sizes", "non-integer"],
    )
    def test_malformed_meta_is_a_storage_error_naming_the_file(self, tmp_path, meta):
        base = str(tmp_path / "doc")
        DatabaseBuilder().build_from_xml("<a><b/></a>", base)
        with open(base + ".meta", "w", encoding="utf-8") as handle:
            handle.write(meta)
        with pytest.raises(StorageError, match=r"doc\.meta"):
            ArbDatabase.open(base)

    def test_open_accepts_arb_suffix(self, tmp_path):
        base = str(tmp_path / "doc")
        build_database("<a><b/></a>", base)
        database = ArbDatabase.open(base + ".arb")
        assert database.n_nodes == 2

    def test_build_stack_depth_bounded_by_xml_depth(self, tmp_path):
        document = "<a><b><c><d><e/></d></c></b></a>"
        stats = build_database(document, str(tmp_path / "deep"))
        assert stats.max_stack_depth <= 5 + 1

    def test_random_round_trip(self, tmp_path):
        rng = random.Random(99)
        for index in range(10):
            tree = random_unranked_tree(rng, max_nodes=80, labels=("x", "y", "z"))
            base = str(tmp_path / f"rand{index}")
            build_database(tree, base)
            reloaded = ArbDatabase.open(base).to_binary_tree()
            expected = BinaryTree.from_unranked(tree)
            assert reloaded.labels == expected.labels
            assert reloaded.first_child == expected.first_child
            assert reloaded.second_child == expected.second_child

    @given(
        spec=st.recursive(
            st.sampled_from(["a", "b", "x", "y"]),
            lambda children: st.tuples(st.sampled_from(["a", "b"]), st.lists(children, max_size=3)),
            max_leaves=12,
        ),
        record_size=st.sampled_from([2, 3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, spec, record_size, tmp_path_factory):
        """The structure decoder rebuilds the binary encoding exactly, with
        character nodes ("x", "y" leaves) and at an odd record size."""
        from repro.tree import UnrankedTree

        tree = UnrankedTree.from_nested(spec)
        for node in tree.iter_nodes():
            node.is_text = node.label in ("x", "y") and not node.children
        base = str(tmp_path_factory.mktemp("arbdb") / "t")
        build_database(tree, base, record_size=record_size)
        database = ArbDatabase.open(base)
        assert database.record_size == record_size
        reloaded = database.to_binary_tree()
        expected = BinaryTree.from_unranked(tree)
        assert reloaded.labels == expected.labels
        assert reloaded.first_child == expected.first_child
        assert reloaded.second_child == expected.second_child

    def test_a_corrupt_child_flag_fails_the_in_memory_load(self, tmp_path):
        """The last record claims a first child: the disk loop refuses the
        file, and so must the structure decoder behind ``engine="memory"``
        (it once answered from a tree that silently lost the child)."""
        base = str(tmp_path / "doc")
        build_database("<a><b/><c/><b/></a>", base)
        record_size = ArbDatabase.open(base).record_size
        with open(base + ".arb", "r+b") as handle:
            handle.seek(3 * record_size)
            value = int.from_bytes(handle.read(record_size), "big") | flag_masks(record_size)[0]
            handle.seek(3 * record_size)
            handle.write(value.to_bytes(record_size, "big"))
        query = "QUERY :- V.Label[b];"
        with pytest.raises(StorageError, match="corrupt database"):
            ArbDatabase.open(base).to_binary_tree()
        database = Database.open(base)
        database.plan_cache = PlanCache()
        with pytest.raises(StorageError, match="corrupt database"):
            database.binary_tree()
        with pytest.raises(StorageError, match="corrupt database"):
            Database.open(base).query(query, engine="memory")
        with pytest.raises(EvaluationError):
            database.query(query, engine="disk")

    @pytest.mark.parametrize(
        "record, set_bit",
        [(0, True), (1, False)],
        ids=["root-claims-a-sibling", "child-list-ends-early"],
    )
    def test_a_corrupt_sibling_flag_fails_the_in_memory_load(self, tmp_path, record, set_bit):
        """The decoder trusts no next-sibling flag: a root with a sibling
        leaves the stream inside a subtree, a child list that stops early
        leaves records dangling after the root is complete."""
        base = str(tmp_path / "doc")
        build_database("<a><b/><c/><b/></a>", base)
        record_size = ArbDatabase.open(base).record_size
        sibling_bit = flag_masks(record_size)[1]
        with open(base + ".arb", "r+b") as handle:
            handle.seek(record * record_size)
            value = int.from_bytes(handle.read(record_size), "big")
            value = value | sibling_bit if set_bit else value & ~sibling_bit
            handle.seek(record * record_size)
            handle.write(value.to_bytes(record_size, "big"))
        with pytest.raises(StorageError, match="corrupt database"):
            ArbDatabase.open(base).to_binary_tree()
        with pytest.raises(StorageError, match="corrupt database"):
            Database.open(base).query("QUERY :- V.Label[b];", engine="memory")

    def test_streamed_and_tree_builds_write_the_same_files(self, tmp_path):
        """A generator's event stream and its tree build one database: the
        builder consumes the same event walk either way, and both remove
        their temporary event file."""
        from repro.datasets import generate_swissprot, generate_swissprot_events

        streamed, from_tree = str(tmp_path / "streamed"), str(tmp_path / "tree")
        DatabaseBuilder().build_from_events(generate_swissprot_events(6, seed=2), streamed)
        DatabaseBuilder().build_from_tree(generate_swissprot(6, seed=2), from_tree)
        for suffix in (".arb", ".lab", ".meta"):
            with open(streamed + suffix, "rb") as a, open(from_tree + suffix, "rb") as b:
                assert a.read() == b.read(), suffix
        assert not os.path.exists(streamed + ".evt")
        assert not os.path.exists(from_tree + ".evt")

    def test_a_missing_meta_is_a_storage_error_naming_it(self, tmp_path):
        """No builder or commit writes a generation without its `.meta`; a
        guess at the sizes (k = 2, nodes from the file size) misreads every
        record of a record-size-3 file."""
        base = str(tmp_path / "doc")
        build_database("<a>" + "<b/>" * 7 + "</a>", base, record_size=3)
        os.remove(base + ".meta")
        with pytest.raises(StorageError, match=r"missing database metadata .*doc\.meta"):
            ArbDatabase.open(base)
        with pytest.raises(StorageError, match=r"doc\.meta"):
            Database.open(base)


class TestScans:
    """Proposition 5.1 on the real scan pair: each phase is one linear scan
    whose stack is bounded by the depth of the XML tree."""

    def scan_pair(self, base: str):
        database = Database.open(base)
        database.plan_cache = PlanCache()
        batch = database.query_many(["QUERY :- V.Root;"])
        # Single-page files: nothing is skipped, so the depths are exact.
        assert batch[0].selected_nodes() == [0]
        return batch

    def test_scan_stack_depth_bound_flat_document(self, tmp_path):
        # 200 children under one root: binary depth 200, XML depth 1.
        base = str(tmp_path / "db")
        build_database("<r>" + "<c/>" * 200 + "</r>", base)
        batch = self.scan_pair(base)
        assert 1 <= batch.phase1_stack_depth <= 2
        assert batch.phase2_stack_depth <= 2

    def test_scan_stack_depth_bound_matches_proposition_5_1(self, tmp_path):
        rng = random.Random(5)
        for index in range(5):
            tree = random_unranked_tree(rng, max_nodes=120)
            base = str(tmp_path / f"p51-{index}")
            build_database(tree, base)
            batch = self.scan_pair(base)
            assert 1 <= batch.phase1_stack_depth <= tree.depth() + 1
            assert batch.phase2_stack_depth <= tree.depth() + 1

    def test_single_linear_scan(self, tmp_path):
        base = str(tmp_path / "db")
        build_database("<a><b/><c/></a>", base)
        batch = self.scan_pair(base)
        # One seek per scan: the backward one of phase 1, the forward one of
        # phase 2 (and one more for the state file read in between).
        assert (batch.arb_io.seeks, batch.state_io.seeks) == (2, 1)
