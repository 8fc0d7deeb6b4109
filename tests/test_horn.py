"""Unit tests for the propositional Horn machinery (LTUR, contraction)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import horn
from repro.core.horn import Rule, fact


class TestRule:
    def test_fact_has_empty_body(self):
        rule = fact("P")
        assert rule.is_fact()
        assert rule.head == "P"
        assert rule.body == frozenset()

    def test_rule_body_is_frozenset(self):
        rule = Rule("P", ["A", "B", "A"])
        assert rule.body == frozenset({"A", "B"})

    def test_rules_are_hashable_and_comparable(self):
        assert Rule("P", ["A", "B"]) == Rule("P", ["B", "A"])
        assert len({Rule("P", ["A"]), Rule("P", ["A"])}) == 1

    def test_tautology_detection(self):
        assert Rule("P", ["P", "Q"]).is_tautology()
        assert not Rule("P", ["Q"]).is_tautology()

    def test_repr_mentions_head_and_body(self):
        assert repr(fact("P")) == "P <-"
        assert repr(Rule("P", ["A"])) == "P <- A"


class TestSuperscripts:
    def test_push_down_and_strip(self):
        assert horn.push_down("P", 1) == "P#1"
        assert horn.push_down("P", 2) == "P#2"
        assert horn.strip_superscript("P#1") == "P"
        assert horn.strip_superscript("P") == "P"

    def test_superscript_of(self):
        assert horn.superscript_of("P") == 0
        assert horn.superscript_of("P#1") == 1
        assert horn.superscript_of("P#2") == 2

    def test_push_down_rejects_bad_child_index(self):
        with pytest.raises(ValueError):
            horn.push_down("P", 3)

    def test_push_down_rejects_double_superscript(self):
        with pytest.raises(ValueError):
            horn.push_down("P#1", 1)

    def test_push_down_program(self):
        rules = [Rule("P", ["Q", "R"]), fact("S")]
        pushed = horn.push_down_program(rules, 2)
        assert Rule("P#2", ["Q#2", "R#2"]) in pushed
        assert fact("S#2") in pushed


class TestHelpers:
    def test_preds_as_rules(self):
        rules = horn.preds_as_rules(["A", "B"])
        assert fact("A") in rules and fact("B") in rules

    def test_true_preds(self):
        program = [fact("A"), Rule("B", ["A"]), fact("C")]
        assert horn.true_preds(program) == frozenset({"A", "C"})


class TestLtur:
    def test_simple_chain(self):
        program = [fact("A"), Rule("B", ["A"]), Rule("C", ["B"])]
        result = horn.ltur(program)
        assert result.derived == frozenset({"A", "B", "C"})

    def test_conjunction_requires_all_body_atoms(self):
        program = [fact("A"), Rule("C", ["A", "B"])]
        result = horn.ltur(program)
        assert "C" not in result.derived

    def test_residual_contains_derived_idb_facts(self):
        program = [fact("A"), Rule("B", ["A"])]
        residual = horn.ltur(program).residual
        assert fact("A") in residual and fact("B") in residual

    def test_residual_drops_satisfied_rules(self):
        program = [fact("A"), Rule("B", ["A"]), Rule("B", ["Z"])]
        residual = set(horn.ltur(program).residual)
        # B is derived, so no conditional rule for B remains.
        assert all(rule.body == frozenset() for rule in residual if rule.head == "B")

    def test_residual_removes_true_body_predicates(self):
        program = [fact("A"), Rule("C", ["A", "B"])]
        residual = set(horn.ltur(program).residual)
        assert Rule("C", ["B"]) in residual

    def test_rules_with_false_edb_predicates_are_dropped(self):
        program = [Rule("P", ["Root"]), Rule("Q", ["X"])]
        result = horn.ltur(program, edb_predicates=frozenset({"Root"}))
        assert Rule("P", ["Root"]) not in result.residual
        assert Rule("Q", ["X"]) in result.residual

    def test_derived_edb_predicates_are_not_reasserted(self):
        program = [fact("Root"), Rule("P", ["Root"])]
        result = horn.ltur(program, edb_predicates=frozenset({"Root"}))
        assert fact("Root") not in result.residual
        assert fact("P") in result.residual

    def test_example_4_5_leaf(self):
        """The leaf v2 of Example 4.5 yields the residual {P4 <- P3}."""
        program = [
            Rule("P1", ["Root"]),
            Rule("P4", ["P3", "-HasFirstChild"]),
            fact("-HasFirstChild"),
            fact("-HasSecondChild"),
            fact("Label[a]"),
        ]
        edb = frozenset({"Root", "-Root", "-HasFirstChild", "HasFirstChild",
                         "-HasSecondChild", "HasSecondChild", "Label[a]"})
        residual = horn.ltur(program, edb).residual
        assert set(residual) == {Rule("P4", ["P3"])}

    def test_empty_program(self):
        result = horn.ltur([])
        assert result.derived == frozenset()
        assert result.residual == ()

    @given(st.lists(st.sampled_from("ABCDEF"), min_size=0, max_size=6))
    def test_derived_is_superset_of_facts(self, heads):
        program = [fact(h) for h in heads] + [Rule("Z", ["A", "B"])]
        result = horn.ltur(program)
        assert set(heads) <= result.derived


class TestContractProgram:
    def test_paper_example_4_4(self):
        """Example 4.4: the given program contracts to three local rules."""
        program = [
            Rule("P0", ["P1", "P2"]),
            Rule("P1", ["P3#1"]),
            Rule("P2", ["P4#1"]),
            Rule("P3#1", ["P5#1"]),
            Rule("P4#1", ["P5#1", "P6#1"]),
            Rule("P5#1", ["P7"]),
            Rule("P6#1", ["P7", "P8"]),
            Rule("P8", ["P9#2", "P10#2"]),
            Rule("P9#2", ["P11"]),
        ]
        contracted = horn.contract_program(program)
        assert contracted == frozenset(
            {Rule("P0", ["P1", "P2"]), Rule("P1", ["P7"]), Rule("P2", ["P7", "P8"])}
        )

    def test_example_4_5_contraction(self):
        """The unfolding chain of Example 4.5 yields {P5 <- P2}."""
        program = [
            Rule("P2#1", ["P1"]),
            Rule("P3#1", ["P2"]),
            Rule("P5", ["P4#1"]),
            Rule("Q", ["P5#1"]),
            Rule("P4#1", ["P3#1"]),
        ]
        assert horn.contract_program(program) == frozenset({Rule("P5", ["P2"])})

    def test_local_rules_pass_through(self):
        program = [Rule("A", ["B"]), fact("C")]
        contracted = horn.contract_program(program)
        assert Rule("A", ["B"]) in contracted and fact("C") in contracted

    def test_rules_with_unresolvable_superscripts_are_dropped(self):
        program = [Rule("A", ["B#1"])]
        assert horn.contract_program(program) == frozenset()

    def test_budget_guard(self):
        # Build a program designed to explode combinatorially and check the
        # guard raises instead of hanging.
        rules = []
        for i in range(12):
            rules.append(Rule(f"X{i}#1", [f"Y{i}a#1", f"Y{i}b#1"]))
            rules.append(Rule(f"Y{i}a#1", [f"X{(i + 1) % 12}#1", f"Z{i}#1"]))
            rules.append(Rule(f"Y{i}b#1", [f"X{(i + 3) % 12}#1", f"W{i}#1"]))
        rules.append(Rule("GOAL", ["X0#1"]))
        with pytest.raises(RuntimeError):
            horn.contract_program(rules, max_rules=50)


class TestSimplifyProgram:
    def test_drops_tautologies(self):
        assert horn.simplify_program([Rule("P", ["P"])]) == frozenset()

    def test_drops_rules_whose_head_is_a_fact(self):
        program = [fact("P"), Rule("P", ["Q"])]
        assert horn.simplify_program(program) == frozenset({fact("P")})

    def test_subsumption(self):
        program = [Rule("P", ["A"]), Rule("P", ["A", "B"])]
        assert horn.simplify_program(program) == frozenset({Rule("P", ["A"])})

    def test_keeps_incomparable_bodies(self):
        program = [Rule("P", ["A"]), Rule("P", ["B"])]
        assert horn.simplify_program(program) == frozenset(program)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("PQR"),
                st.sets(st.sampled_from("ABCPQR"), max_size=3),
            ),
            max_size=8,
        )
    )
    def test_simplification_preserves_derived_atoms(self, raw_rules):
        """Simplify must not change what is derivable from any set of facts."""
        program = [Rule(head, body) for head, body in raw_rules]
        simplified = list(horn.simplify_program(program))
        for seed in [set(), {"A"}, {"A", "B"}, {"A", "B", "C"}]:
            seeded = horn.preds_as_rules(seed)
            before = horn.ltur(list(program) + seeded).derived
            after = horn.ltur(simplified + seeded).derived
            assert before == after
