"""Tests for the public Database/QueryResult API and the CLI."""

from __future__ import annotations

import pytest

from repro import Database, TMNFProgram, compile_query, evaluate_fixpoint
from repro.cli import main as cli_main
from repro.errors import EvaluationError

DOCUMENT = "<library><book><title>ab</title></book><dvd/><book/></library>"


class TestDatabaseAPI:
    def test_from_xml_and_simple_query(self):
        database = Database.from_xml(DOCUMENT)
        result = database.query("QUERY :- V.Label[book];")
        assert result.count() == 2
        assert [database.label(v) for v in result.selected_nodes()] == ["book", "book"]

    def test_xpath_query(self):
        database = Database.from_xml(DOCUMENT, text_mode="ignore")
        result = database.query("//book[title]", language="xpath")
        assert result.count() == 1

    def test_query_accepts_program_object(self):
        database = Database.from_xml(DOCUMENT)
        program = TMNFProgram.parse("QUERY :- V.Label[dvd];")
        assert database.query(program).count() == 1

    def test_compile_query_rejects_unknown_language(self):
        with pytest.raises(EvaluationError):
            compile_query("//a", language="sql")

    def test_fixpoint_reference_evaluation(self):
        database = Database.from_xml(DOCUMENT)
        fast = database.query("QUERY :- V.Label[book];")
        program = compile_query("QUERY :- V.Label[book];")
        slow = evaluate_fixpoint(program, database.binary_tree())
        assert fast.selected_nodes() == slow.selected["QUERY"]

    def test_on_disk_database(self, tmp_path):
        base = str(tmp_path / "library")
        database = Database.build(DOCUMENT, base)
        assert database.is_on_disk
        result = database.query("QUERY :- V.Label[book];")
        assert result.count() == 2
        assert result.io is not None and result.io.bytes_read > 0
        # Forcing the in-memory path gives the same answer.
        in_memory = database.query("QUERY :- V.Label[book];", engine="memory")
        assert in_memory.selected_nodes() == result.selected_nodes()

    def test_disk_engine_on_memory_database_fails(self):
        database = Database.from_xml(DOCUMENT)
        with pytest.raises(EvaluationError):
            database.query("QUERY :- V.Label[book];", engine="disk")

    def test_markup_output(self):
        database = Database.from_xml(DOCUMENT, text_mode="ignore")
        result = database.query("QUERY :- V.Label[dvd];")
        output = database.to_xml(result.selected_nodes())
        assert '<dvd arb:selected="true"/>' in output

    def test_unknown_predicate_in_result(self):
        database = Database.from_xml(DOCUMENT)
        result = database.query("QUERY :- V.Label[book];")
        with pytest.raises(EvaluationError):
            result.selected_nodes("Nope")

    def test_n_nodes_and_repr(self):
        database = Database.from_xml(DOCUMENT, text_mode="ignore")
        assert database.n_nodes == 5
        assert "memory" in repr(database)


class TestCLI:
    def test_build_query_stats_round_trip(self, tmp_path, capsys):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(DOCUMENT)
        base = str(tmp_path / "doc")

        assert cli_main(["build", str(xml_path), base]) == 0
        captured = capsys.readouterr().out
        assert "elem_nodes" in captured

        assert cli_main(["query", base, "-q", "QUERY :- V.Label[book];", "--ids"]) == 0
        captured = capsys.readouterr().out
        assert "selected nodes  : 2" in captured

        assert cli_main(["stats", base]) == 0
        captured = capsys.readouterr().out
        assert "nodes" in captured

    def test_query_xml_file_with_xpath(self, tmp_path, capsys):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(DOCUMENT)
        assert cli_main(["query", str(xml_path), "-x", "//book", "--mark-up"]) == 0
        captured = capsys.readouterr().out
        assert 'arb:selected="true"' in captured

    def test_query_program_file(self, tmp_path, capsys):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(DOCUMENT)
        program_path = tmp_path / "q.tmnf"
        program_path.write_text("QUERY :- V.Label[dvd];")
        assert cli_main(["query", str(xml_path), "-f", str(program_path)]) == 0
        assert "selected nodes  : 1" in capsys.readouterr().out

    def test_error_reporting(self, tmp_path, capsys):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(DOCUMENT)
        assert cli_main(["query", str(xml_path), "-q", "broken ::"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchHarness:
    """Smoke tests for the Figure 5 / Figure 6 builders (tiny scales)."""

    def test_figure5_row(self, tmp_path):
        from repro.bench.figure5 import Figure5Scale, build_figure5_database

        scale = Figure5Scale(treebank_nodes=500, acgt_exponent=6, swissprot_entries=5)
        stats = build_figure5_database("ACGT-flat", str(tmp_path), scale)
        row = stats.as_row()
        assert row["elem_nodes"] == 1
        assert row["char_nodes"] == 2**6 - 1
        assert row["arb_bytes"] == 2 * stats.total_nodes

    def test_figure6_row_and_acgt_consistency(self):
        from repro.bench.figure6 import load_block_tree, run_query_batch

        flat = load_block_tree("acgt-flat", acgt_exponent=8)
        infix = load_block_tree("acgt-infix", acgt_exponent=8)
        flat_row = run_query_batch("acgt-flat", flat, 5, queries_per_size=2).as_row()
        infix_row = run_query_batch("acgt-infix", infix, 5, queries_per_size=2).as_row()
        # Same expressions on both encodings select the same number of nodes.
        assert flat_row["selected"] == infix_row["selected"]
        for column in ("|IDB|", "|P|", "bu_transitions", "td_transitions", "total_time_s"):
            assert column in flat_row

    def test_format_table(self):
        from repro.bench.reporting import format_table

        text = format_table([{"a": 1, "b": 2.5}, {"a": 30, "b": 4.0}], title="T")
        assert "T" in text and "a" in text and "30" in text
