"""Tests for two-phase evaluation over secondary storage."""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.baselines.datalog import evaluate_fixpoint
from repro.bench.figure6 import BLOCKS, load_block_tree
from repro.core.two_phase import TwoPhaseEvaluator
from repro.plan import PlanCache
from repro.storage import ArbDatabase, build_database
from repro.storage.paging import IOStatistics
from repro.tmnf import TMNFProgram
from repro.tree import BinaryTree
from tests.conftest import (
    EVEN_ODD_EXAMPLE,
    RUNNING_EXAMPLE,
    random_unranked_tree,
    sidecars_hidden,
)


def make_database(tmp_path, tree, name="db") -> Database:
    """An on-disk database with a plan cache of its own (cold automata)."""
    database = Database.build(tree, str(tmp_path / name))
    database.plan_cache = PlanCache()
    return database


class TestDiskEngine:
    def test_running_example_on_disk(self, tmp_path):
        from repro.tree import parse_xml

        program = TMNFProgram.parse(RUNNING_EXAMPLE, query_predicates="Q")
        database = make_database(tmp_path, parse_xml("<a><a><a/></a></a>"))
        result = database.query(program, engine="disk")
        assert result.backend == "disk"
        assert result.selected["Q"] == [0]
        assert result.selected_nodes("Q") == [0]
        assert result.statistics.nodes == 3

    def test_matches_in_memory_engine_and_fixpoint(self, tmp_path):
        rng = random.Random(17)
        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates=("Even", "Odd"))
        for index in range(8):
            tree = random_unranked_tree(rng, max_nodes=100, labels=("a", "b"))
            database = make_database(tmp_path, tree, name=f"db{index}")
            binary = BinaryTree.from_unranked(tree)

            disk = database.query(program, engine="disk")
            memory = TwoPhaseEvaluator(program).evaluate(binary)
            fixpoint = evaluate_fixpoint(program, binary)

            for predicate in ("Even", "Odd"):
                assert disk.selected[predicate] == memory.selected[predicate]
                assert disk.selected[predicate] == fixpoint.selected[predicate]

    def test_two_linear_scans_of_the_database(self, tmp_path):
        from repro.tree import parse_xml

        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        document = "<r>" + "<a/><b/>" * 100 + "</r>"
        database = make_database(tmp_path, parse_xml(document))
        result = database.query_many([program], engine="disk")
        # The .arb file is read exactly twice (once per phase) and the
        # temporary state file once: three read scans = three seeks, every
        # file on one page.  Exact values, so a changed access pattern for
        # single queries fails here.
        assert (database.disk.file_size(), database.n_nodes) == (402, 201)
        assert result.io.seeks == 3
        assert result.io.pages_read == 3
        assert result.io.pages_written == 1
        # Every byte of the .arb file is read exactly twice, the state file once.
        assert result.io.bytes_read == 1608 == 2 * 402 + 804
        assert result.io.bytes_written == 804
        # The temporary state file holds four bytes per node (footnote 12).
        assert result.state_file_bytes == 804 == 4 * database.n_nodes
        assert (result.phase1_stack_depth, result.phase2_stack_depth) == (1, 0)
        # ... and a single query is that batch of one.
        assert database.query(program, engine="disk").io == result.io

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_a_batch_costs_one_forward_plus_one_backward_scan(self, tmp_path, block):
        """Counter for counter, on a multi-page document of each Figure 6
        shape -- with the sidecar hidden, so that nothing may be skipped."""
        tree = load_block_tree(block, treebank_nodes=4_000, acgt_exponent=10)
        base = str(tmp_path / block)
        build_database(tree.to_unranked(), base, page_size=512)
        arb = ArbDatabase.open(base, page_size=512)
        forward, backward = IOStatistics(), IOStatistics()
        assert sum(1 for _ in arb.records_forward(stats=forward)) == arb.n_nodes
        assert sum(1 for _ in arb.records_backward(stats=backward)) == arb.n_nodes
        assert forward.seeks == backward.seeks == 1 and forward.pages_read > 1
        queries = [f"QUERY :- V.Label[{label}];" for label in BLOCKS[block].alphabet[:4]]
        with sidecars_hidden(tmp_path):
            batch = Database.open(base, page_size=512).query_many(
                queries, engine="disk", temp_dir=str(tmp_path)
            )
        assert sum(result.count() for result in batch.results) > 0
        assert batch.arb_io == forward.merge(backward)

    @pytest.mark.parametrize("page_size", [4096, 7])
    @pytest.mark.parametrize("record_size", [3, 4, 5, 8])
    def test_every_record_size_answers_like_memory(self, tmp_path, record_size, page_size):
        """k = 4 and 8 decode through array typecodes, k = 3 and 5 through
        ``int.from_bytes``; 7-byte pages make records straddle every page
        boundary.  The noise suffix gives the sidecar pages to skip."""
        document = "<r>" + "<s><item/><b/></s>" * 300 + "<n0>" + "<n1/>" * 3000 + "</n0></r>"
        base = str(tmp_path / "doc")
        build_database(document, base, record_size=record_size, page_size=page_size)
        database = Database.open(base, page_size=page_size)
        assert database.disk.record_size == record_size
        queries = ["QUERY :- V.Label[item];", "QUERY :- V.Label[b];"]
        memory = database.query_many(queries, engine="memory")
        indexed = database.query_many(queries)
        with sidecars_hidden(tmp_path):
            full = database.query_many(queries)
        for batch in (indexed, full):
            assert [r.selected for r in batch] == [r.selected for r in memory]
            assert [r.counts for r in batch] == [r.counts for r in memory] == [{"QUERY": 300}] * 2
        assert indexed.arb_io.pages_read < full.arb_io.pages_read

    def test_stack_depth_bounded_by_xml_depth(self, tmp_path):
        from repro.tree import parse_xml

        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        document = "<r>" + "<x><a/><a/></x>" * 50 + "</r>"
        database = make_database(tmp_path, parse_xml(document))
        result = database.query_many([program], engine="disk")
        # XML depth is 2 (r > x > a).
        assert (result.phase1_stack_depth, result.phase2_stack_depth) == (2, 1)

    def test_counts_available_without_collecting_nodes(self, tmp_path):
        from repro.tree import parse_xml

        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        database = make_database(tmp_path, parse_xml("<r><a/><b/></r>"))
        result = database.query_many([program], engine="disk", collect_selected_nodes=False)[0]
        assert result.selected["Even"] == []
        assert result.counts["Even"] > 0
        assert result.statistics.selected == result.counts["Even"]

    def test_transition_tables_shared_across_databases(self, tmp_path):
        """Lazy automata persist across queries on different databases."""
        from repro.tree import parse_xml

        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        one = make_database(tmp_path, parse_xml("<r><a/><a/></r>"), name="one")
        two = make_database(tmp_path, parse_xml("<r><a/><a/><b/></r>"), name="two")
        two.plan_cache = one.plan_cache
        core = one.plan(program)[0].evaluator
        first = one.query(program, engine="disk")
        transitions_after_first = core.n_bottom_up_transitions
        assert first.statistics.bu_transitions == transitions_after_first > 0
        second = two.query(program, engine="disk")
        assert two.plan(program)[0].evaluator is core
        # The second run reuses the first run's transitions: the table grows
        # only by the genuinely new (state, state, labels) combinations this
        # run computed, fewer than one per node.
        grown = core.n_bottom_up_transitions - transitions_after_first
        assert second.statistics.bu_transitions == grown < two.n_nodes
        # Every run reports its own statistics; the first result is not
        # rewritten by the second.
        assert first.statistics is not second.statistics
        assert first.statistics.nodes == one.n_nodes
        assert second.statistics.nodes == two.n_nodes
        # A repeat over a database already seen recomputes nothing.
        assert one.query(program, engine="disk").statistics.bu_transitions == 0
