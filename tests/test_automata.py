"""Tests for the explicit STA construction (the test oracle of Definition 3.2)."""

from __future__ import annotations

import random

import pytest

from repro.core.two_phase import TwoPhaseEvaluator
from repro.errors import EvaluationError
from repro.tmnf import TMNFProgram
from repro.tree import BinaryTree, parse_xml
from tests.conftest import random_binary_tree
from tests.oracles import SelectingTreeAutomaton

# Local, downward and upward rules, so every kind of transition constraint
# of the explicit automaton is exercised.
MIXED_PROGRAM = """
    Mark :- Label[a];
    Below :- Mark.FirstChild;
    Below :- Below.SecondChild;
    Up :- Mark.invFirstChild;
    QUERY :- Below, Label[b];
    QUERY :- Up;
"""


class TestSelectingTreeAutomaton:
    def test_rejects_large_programs(self):
        text = "\n".join(f"P{i} :- Root;" for i in range(15))
        program = TMNFProgram.parse(text, query_predicates="P0")
        with pytest.raises(EvaluationError):
            SelectingTreeAutomaton(program, "P0")

    def test_rejects_unknown_query_predicate(self):
        program = TMNFProgram.parse("A :- Root;", query_predicates="A")
        with pytest.raises(EvaluationError):
            SelectingTreeAutomaton(program, "Missing")

    def test_agrees_with_two_phase_on_small_example(self):
        program = TMNFProgram.parse(
            """
            Mark :- Label[a];
            Up :- Mark.invFirstChild;
            QUERY :- Up, Label[b];
            """
        )
        tree = BinaryTree.from_unranked(parse_xml("<b><a/><b><a/></b></b>"))
        sta = SelectingTreeAutomaton(program, "QUERY")
        two_phase = TwoPhaseEvaluator(program).evaluate(tree)
        assert sta.evaluate(tree) == two_phase.selected["QUERY"]

    def test_agrees_with_two_phase_on_random_trees(self):
        program = TMNFProgram.parse(MIXED_PROGRAM)
        sta = SelectingTreeAutomaton(program, "QUERY")
        evaluator = TwoPhaseEvaluator(program)
        rng = random.Random(31)
        for _ in range(15):
            tree = random_binary_tree(rng, max_nodes=12)
            assert sta.evaluate(tree) == evaluator.evaluate(tree).selected["QUERY"]

    def test_a_state_selects_iff_it_holds_the_query_predicate(self):
        program = TMNFProgram.parse(MIXED_PROGRAM)
        sta = SelectingTreeAutomaton(program, "QUERY")
        selecting = [state for state in sta.states() if sta.is_selecting(state)]
        assert selecting and all("QUERY" in state for state in selecting)
        assert 2 * len(selecting) == len(sta.states())

    def test_powerset_states(self):
        program = TMNFProgram.parse("A :- Root; B :- A.FirstChild;", query_predicates="B")
        sta = SelectingTreeAutomaton(program, "B")
        assert len(sta.states()) == 2 ** program.n_idb
