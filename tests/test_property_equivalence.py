"""Property-based equivalence of the three evaluation strategies.

The central correctness claim of the reproduction: for every TMNF program and
every tree, the two-phase tree-automata evaluation (Algorithm 4.6) computes
exactly the least-model semantics, i.e. it agrees with

* the semi-naive datalog fixpoint evaluator, and
* the explicit STA (Definition 3.2) selection criterion.

Hypothesis generates random trees and random TMNF programs over a small
signature; a program generator that only produced well-known shapes would
miss interaction bugs between up/down/local rules, so rules are drawn freely
from all four templates.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.baselines.datalog import evaluate_fixpoint
from repro.core.two_phase import TwoPhaseEvaluator
from repro.tmnf import TMNFProgram
from tests.oracles import SelectingTreeAutomaton
from tests.strategies import binary_trees as trees, tmnf_programs


def programs():
    return tmnf_programs(max_rules=8)


COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #


@given(program=programs(), tree=trees())
@settings(max_examples=120, **COMMON_SETTINGS)
def test_two_phase_matches_fixpoint(program, tree):
    query = program.query_predicates[0]
    automata = TwoPhaseEvaluator(program).evaluate(tree, keep_true_predicates=True)
    fixpoint = evaluate_fixpoint(program, tree)
    assert automata.selected[query] == fixpoint.selected[query]
    for node in range(len(tree)):
        assert automata.true_predicates[node] == frozenset(fixpoint.true_predicates[node])


@given(program=programs(), tree=trees(max_leaves=5))
@settings(max_examples=40, **COMMON_SETTINGS)
def test_two_phase_matches_explicit_sta(program, tree):
    """Theorem 4.1 + Proposition 3.3: the deterministic two-phase evaluation
    implements the STA selection criterion."""
    query = program.query_predicates[0]
    automata = TwoPhaseEvaluator(program).evaluate(tree)
    sta = SelectingTreeAutomaton(program, query)
    assert automata.selected[query] == sta.evaluate(tree)


@given(program=programs(), tree=trees())
@settings(max_examples=60, **COMMON_SETTINGS)
def test_evaluation_is_deterministic(program, tree):
    first = TwoPhaseEvaluator(program).evaluate(tree)
    second = TwoPhaseEvaluator(program).evaluate(tree)
    assert first.selected == second.selected


@given(tree=trees())
@settings(max_examples=60, **COMMON_SETTINGS)
def test_even_odd_partition_property(tree):
    """On any tree, Example 2.2 assigns exactly one of Even/Odd to every node."""
    from tests.conftest import EVEN_ODD_EXAMPLE

    program = TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates=("Even", "Odd"))
    result = TwoPhaseEvaluator(program).evaluate(tree)
    even = set(result.selected["Even"])
    odd = set(result.selected["Odd"])
    assert even | odd == set(range(len(tree)))
    assert not (even & odd)
