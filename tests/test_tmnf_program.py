"""Tests for program compilation (caterpillars -> strict TMNF), PropLocal and
the TMNFProgram container."""

from __future__ import annotations

import pytest

from repro.core.horn import Rule
from repro.errors import TMNFValidationError
from repro.tmnf import TMNFProgram, compile_rules, parse_rules
from repro.tmnf.ast import DownRule, LocalRule, UpRule
from repro.tmnf.proplocal import prop_local
from tests.conftest import EVEN_ODD_EXAMPLE, RUNNING_EXAMPLE


class TestCompile:
    def test_strict_rules_pass_through(self):
        rules = parse_rules("A :- Root; B :- A.FirstChild; C :- B.invSecondChild;")
        compiled = compile_rules(rules)
        assert LocalRule("A", ("Root",)) in compiled
        assert DownRule("B", "A", "FirstChild") in compiled
        assert UpRule("C", "B", "SecondChild") in compiled

    def test_caterpillar_produces_only_internal_rules(self):
        rules = parse_rules("Q :- P.FirstChild.SecondChild*.Label[a];")
        compiled = compile_rules(rules)
        assert all(isinstance(r, (LocalRule, DownRule, UpRule)) for r in compiled)
        assert any(r.head == "Q" for r in compiled)

    def test_compilation_is_linear_in_expression_size(self):
        small = compile_rules(parse_rules("Q :- P.FirstChild.SecondChild.Label[a];"))
        big = compile_rules(
            parse_rules(
                "Q :- P.FirstChild.SecondChild.Label[a].FirstChild.SecondChild.Label[b]"
                ".FirstChild.SecondChild.Label[c];"
            )
        )
        assert len(big) <= 3 * len(small) + 10

    def test_edb_start_is_wrapped(self):
        compiled = compile_rules(parse_rules("Q :- Label[a].invFirstChild;"))
        up_rules = [r for r in compiled if isinstance(r, UpRule)]
        assert len(up_rules) == 1
        wrapper = up_rules[0].body_pred
        assert LocalRule(wrapper, ("Label[a]",)) in compiled

    def test_universe_start_is_wrapped_as_unconditional_rule(self):
        compiled = compile_rules(parse_rules("Q :- V.FirstChild;"))
        down = [r for r in compiled if isinstance(r, DownRule)]
        assert len(down) == 1
        wrapper = down[0].body_pred
        assert LocalRule(wrapper, ()) in compiled


class TestPropLocal:
    def test_running_example_matches_paper_example_4_3(self):
        program = TMNFProgram.parse(RUNNING_EXAMPLE, query_predicates="Q")
        prop = program.prop_local()
        assert set(prop.local_rules) == {
            Rule("P1", ["Root"]),
            Rule("P4", ["P3", "-HasFirstChild"]),
        }
        assert set(prop.left_rules) == {
            Rule("P2#1", ["P1"]),
            Rule("P3#1", ["P2"]),
            Rule("P5", ["P4#1"]),
            Rule("Q", ["P5#1"]),
        }
        assert prop.right_rules == ()
        assert set(prop.downward_rules1) == {Rule("P2#1", ["P1"]), Rule("P3#1", ["P2"])}
        assert prop.downward_rules2 == ()

    def test_sigma_of_even_odd_example(self):
        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        assert program.sigma == frozenset({"-HasFirstChild", "-HasSecondChild",
                                           "Label[a]", "-Label[a]"})

    def test_downward_rules_are_subset_of_left_right(self):
        program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")
        prop = program.prop_local()
        assert set(prop.downward_rules1) <= set(prop.left_rules)
        assert set(prop.downward_rules2) <= set(prop.right_rules)

    def test_edb_predicates_contains_complements(self):
        program = TMNFProgram.parse("P :- Root;", query_predicates="P")
        assert "-Root" in program.prop_local().edb_predicates

    def test_caterpillar_rule_must_be_compiled_first(self):
        rules = parse_rules("Q :- P.FirstChild.Label[a];")
        with pytest.raises(TMNFValidationError):
            prop_local(rules)  # surface rules still contain a CaterpillarRule


class TestTMNFProgram:
    def test_parse_counts(self):
        program = TMNFProgram.parse(RUNNING_EXAMPLE, query_predicates="Q")
        assert program.n_idb == 6
        assert program.n_rules == 6
        assert program.query_predicates == ("Q",)

    def test_query_predicate_defaults_to_QUERY(self):
        program = TMNFProgram.parse("A :- Root; QUERY :- A.FirstChild;")
        assert program.query_predicates == ("QUERY",)

    def test_query_predicate_falls_back_to_first_head(self):
        program = TMNFProgram.parse("A :- Root; B :- A.FirstChild;")
        assert program.query_predicates == ("A",)

    def test_unknown_query_predicate_rejected(self):
        with pytest.raises(TMNFValidationError):
            TMNFProgram.parse("A :- Root;", query_predicates="Nope")

    def test_empty_program_rejected(self):
        with pytest.raises(TMNFValidationError):
            TMNFProgram.parse("   # nothing here\n")

    def test_multiple_query_predicates(self):
        program = TMNFProgram.parse(
            "A :- Root; B :- A.FirstChild;", query_predicates=("A", "B")
        )
        assert program.query_predicates == ("A", "B")

    def test_repr_mentions_sizes(self):
        program = TMNFProgram.parse("A :- Root;", query_predicates="A")
        assert "|IDB|=1" in repr(program)
