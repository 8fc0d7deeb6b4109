"""Two-phase query evaluation (Section 4, Algorithm 4.6).

The evaluator runs a deterministic bottom-up tree automaton ``A`` whose
states are *residual propositional Horn programs* (each representing the set
of reachable STA states), followed by a deterministic top-down tree automaton
``B`` that prunes the reachable states and outputs, per node, the set of IDB
predicates true in the least model of the TMNF program.

The transition functions of both automata are computed **lazily** with the
procedures of Figures 2 and 3:

* :meth:`TwoPhaseEvaluator.compute_reachable_states` -- ``delta^A``
* :meth:`TwoPhaseEvaluator.compute_true_preds` -- ``delta^B_k``

and memoised in hash tables, exactly as in the Arb implementation ("In total,
we use four hash tables to store and quickly access the states and
transitions of the two automata").

This module evaluates over in-memory :class:`~repro.tree.binary.BinaryTree`
instances; :mod:`repro.plan.batch` drives the same evaluator over `.arb`
files in secondary storage with two linear scans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import horn
from repro.core.horn import Rule
from repro.errors import EvaluationError
from repro.tree.binary import NO_NODE, BinaryTree

if TYPE_CHECKING:  # imported for type checking only, to avoid an import cycle
    from repro.tmnf.program import TMNFProgram
    from repro.tmnf.proplocal import PropLocalProgram

__all__ = ["TwoPhaseEvaluator", "EvaluationResult", "EvaluationStatistics", "BOTTOM"]

#: Pseudo-state used for non-existent children (the paper's ``⊥``).
BOTTOM = -1


@dataclass
class EvaluationStatistics:
    """Counters reported by the paper's Figure 6 plus a few extras.

    ``bu_transitions`` / ``td_transitions`` are the numbers of transitions
    computed lazily (columns (5) and (7)); the ``*_seconds`` attributes are
    the per-phase wall-clock times (columns (4) and (6)); ``selected`` is the
    number of nodes assigned the query predicate (column (9));
    ``memory_estimate_kb`` approximates the space held by the automata's hash
    tables (column (10) analogue).

    ``plan_cache_hits`` / ``plan_cache_misses`` record whether the query-plan
    layer served this evaluation from a cached plan (in which case the lazily
    computed transition counters above start from warm memo tables, typically
    at zero recompiled transitions) or had to compile a fresh plan.  Both stay
    zero for evaluations that bypass the plan layer.
    """

    bu_seconds: float = 0.0
    td_seconds: float = 0.0
    bu_transitions: int = 0
    td_transitions: int = 0
    bu_states: int = 0
    td_states: int = 0
    nodes: int = 0
    selected: int = 0
    memory_estimate_kb: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    @property
    def total_seconds(self) -> float:
        return self.bu_seconds + self.td_seconds

    @classmethod
    def merged(cls, runs) -> "EvaluationStatistics":
        """Fold the statistics of distinct runs into one.

        Additive counters (times, transitions, nodes, selected, memory,
        plan-cache hits/misses) sum; the state-table sizes ``bu_states`` /
        ``td_states`` are gauges of (possibly shared) memo tables, so the
        fold takes their maximum instead of double-counting shared tables.
        The fold is commutative, so the order of ``runs`` never changes the
        totals.  Every run is counted as often as it is passed: each
        execution of a plan gets statistics of its own
        (:meth:`~repro.plan.plan.QueryPlan.begin_run`).
        """
        total = cls()
        for stats in runs:
            total.bu_seconds += stats.bu_seconds
            total.td_seconds += stats.td_seconds
            total.bu_transitions += stats.bu_transitions
            total.td_transitions += stats.td_transitions
            total.bu_states = max(total.bu_states, stats.bu_states)
            total.td_states = max(total.td_states, stats.td_states)
            total.nodes += stats.nodes
            total.selected += stats.selected
            total.memory_estimate_kb += stats.memory_estimate_kb
            total.plan_cache_hits += stats.plan_cache_hits
            total.plan_cache_misses += stats.plan_cache_misses
        return total

    def as_row(self) -> dict[str, float]:
        """Flat dictionary used by the benchmark harness."""
        return {
            "bu_seconds": self.bu_seconds,
            "bu_transitions": self.bu_transitions,
            "td_seconds": self.td_seconds,
            "td_transitions": self.td_transitions,
            "total_seconds": self.total_seconds,
            "selected": self.selected,
            "memory_kb": self.memory_estimate_kb,
            "plan_hits": self.plan_cache_hits,
            "plan_misses": self.plan_cache_misses,
        }


@dataclass
class EvaluationResult:
    """Result of running a program over a tree.

    Attributes
    ----------
    selected:
        Mapping from query predicate to the sorted list of selected node ids.
    true_predicates:
        Per-node sets of true IDB predicates (only populated when requested).
    statistics:
        Evaluation statistics (timings, lazily computed transitions, ...).
    """

    selected: dict[str, list[int]]
    true_predicates: list[frozenset[str]] | None
    statistics: EvaluationStatistics

    def selected_nodes(self, predicate: str | None = None) -> list[int]:
        """Selected nodes for ``predicate`` (default: the first query predicate)."""
        if predicate is None:
            if not self.selected:
                return []
            predicate = next(iter(self.selected))
        if predicate not in self.selected:
            raise EvaluationError(f"no such query predicate: {predicate!r}")
        return self.selected[predicate]


@dataclass
class _Tables:
    """The four hash tables of the Arb implementation."""

    states: list[frozenset[Rule]] = field(default_factory=list)
    state_ids: dict[frozenset[Rule], int] = field(default_factory=dict)
    bu_transitions: dict[tuple[int, int, frozenset[str]], int] = field(default_factory=dict)
    td_states: dict[frozenset[str], int] = field(default_factory=dict)
    td_transitions: dict[tuple[frozenset[str], int, int], frozenset[str]] = field(default_factory=dict)


class TwoPhaseEvaluator:
    """Evaluate a TMNF program with the two-phase tree-automata algorithm.

    Parameters
    ----------
    program:
        The TMNF program to evaluate.
    memoize:
        When true (default), transitions are computed lazily once and cached;
        when false every node recomputes its transition (used by the
        laziness ablation benchmark).
    """

    def __init__(self, program: "TMNFProgram", *, memoize: bool = True):
        self.program = program
        self.prop: "PropLocalProgram" = program.prop_local()
        self.memoize = memoize
        self._tables = _Tables()
        self.stats = EvaluationStatistics()

        prop = self.prop
        self._local_rules = tuple(prop.local_rules)
        self._left_rules = tuple(prop.left_rules)
        self._right_rules = tuple(prop.right_rules)
        self._down_rules = {1: tuple(prop.downward_rules1), 2: tuple(prop.downward_rules2)}
        self._sigma = prop.edb_predicates
        self._schema = prop.schema

    def reset_stats(self) -> EvaluationStatistics:
        """Install fresh per-run statistics, keeping the memoised tables.

        The query-plan layer reuses one evaluator across many executions (of
        the same plan, possibly over different documents); each execution
        starts with this so its counters reflect only the work done by that
        run -- a warm plan therefore reports zero recompiled transitions.
        """
        self.stats = EvaluationStatistics()
        return self.stats

    # ------------------------------------------------------------------ #
    # State interning
    # ------------------------------------------------------------------ #

    def _intern_state(self, rules: frozenset[Rule]) -> int:
        table = self._tables
        state_id = table.state_ids.get(rules)
        if state_id is None:
            state_id = len(table.states)
            table.state_ids[rules] = state_id
            table.states.append(rules)
        return state_id

    def state_program(self, state_id: int) -> frozenset[Rule]:
        """The residual program represented by a bottom-up state id."""
        return self._tables.states[state_id]

    # ------------------------------------------------------------------ #
    # delta^A: ComputeReachableStates (Figure 2)
    # ------------------------------------------------------------------ #

    def compute_reachable_states(
        self, left_state: int, right_state: int, labels: frozenset[str]
    ) -> int:
        """Transition of the deterministic bottom-up automaton ``A``.

        ``left_state`` / ``right_state`` are interned state ids of the
        children's residual programs, or :data:`BOTTOM` when the child does
        not exist; ``labels`` is the node's label set (subset of ``sigma``).
        """
        key = (left_state, right_state, labels)
        if self.memoize:
            cached = self._tables.bu_transitions.get(key)
            if cached is not None:
                return cached

        rules: list[Rule] = list(self._local_rules)
        rules.extend(horn.preds_as_rules(labels))
        if left_state != BOTTOM:
            rules.extend(self._left_rules)
            rules.extend(horn.push_down_program(self._tables.states[left_state], 1))
        if right_state != BOTTOM:
            rules.extend(self._right_rules)
            rules.extend(horn.push_down_program(self._tables.states[right_state], 2))

        residual = horn.ltur(rules, self._sigma).residual
        if left_state != BOTTOM or right_state != BOTTOM:
            program = horn.contract_program(residual)
        else:
            program = horn.simplify_program(residual)

        state_id = self._intern_state(program)
        self.stats.bu_transitions += 1
        if self.memoize:
            self._tables.bu_transitions[key] = state_id
        return state_id

    # ------------------------------------------------------------------ #
    # delta^B_k: ComputeTruePreds (Figure 3)
    # ------------------------------------------------------------------ #

    def compute_true_preds(
        self, parent_preds: frozenset[str], child_state: int, k: int
    ) -> frozenset[str]:
        """Transition of the weak deterministic top-down automaton ``B``.

        ``parent_preds`` is the set of IDB predicates true at the parent,
        ``child_state`` the bottom-up state (residual program) of the
        ``k``-child; the result is the set of IDB predicates true at that
        child.
        """
        key = (parent_preds, child_state, k)
        if self.memoize:
            cached = self._tables.td_transitions.get(key)
            if cached is not None:
                return cached

        rules: list[Rule] = list(self._down_rules[k])
        rules.extend(horn.preds_as_rules(parent_preds))
        rules.extend(horn.push_down_program(self._tables.states[child_state], k))
        derived = horn.ltur(rules).derived
        result = frozenset(
            horn.strip_superscript(pred)
            for pred in derived
            if horn.superscript_of(pred) == k
        )
        self.stats.td_transitions += 1
        if self.memoize:
            self._tables.td_transitions[key] = result
            self._tables.td_states.setdefault(result, len(self._tables.td_states))
        return result

    def root_true_preds(self, root_state: int) -> frozenset[str]:
        """TruePreds(rho^A(root)): start state ``s^B`` of the top-down automaton."""
        return horn.true_preds(self._tables.states[root_state])

    # ------------------------------------------------------------------ #
    # Algorithm 4.6 over an in-memory binary tree
    # ------------------------------------------------------------------ #

    def run_bottom_up(self, tree: BinaryTree) -> list[int]:
        """Phase 1: the run ``rho^A`` as a list of state ids indexed by node."""
        started = time.perf_counter()
        n = len(tree)
        states = [BOTTOM] * n
        first_child = tree.first_child
        second_child = tree.second_child
        schema = self._schema
        compute = self.compute_reachable_states
        # Node ids are assigned in pre-order, so iterating ids in descending
        # order visits every child before its parent.
        for node in range(n - 1, -1, -1):
            left = first_child[node]
            right = second_child[node]
            left_state = states[left] if left != NO_NODE else BOTTOM
            right_state = states[right] if right != NO_NODE else BOTTOM
            labels = schema.node_label_set(tree, node)
            states[node] = compute(left_state, right_state, labels)
        self.stats.bu_seconds += time.perf_counter() - started
        self.stats.bu_states = len(self._tables.states)
        self.stats.nodes = n
        return states

    def run_top_down(self, tree: BinaryTree, states: list[int]) -> list[frozenset[str]]:
        """Phase 2: the run ``rho^B``; returns per-node sets of true IDB predicates."""
        started = time.perf_counter()
        n = len(tree)
        preds: list[frozenset[str]] = [frozenset()] * n
        preds[tree.root] = self.root_true_preds(states[tree.root])
        first_child = tree.first_child
        second_child = tree.second_child
        compute = self.compute_true_preds
        # Pre-order iteration guarantees the parent is processed before its
        # children, so ``preds[node]`` is final when we expand ``node``.
        for node in range(n):
            node_preds = preds[node]
            left = first_child[node]
            if left != NO_NODE:
                preds[left] = compute(node_preds, states[left], 1)
            right = second_child[node]
            if right != NO_NODE:
                preds[right] = compute(node_preds, states[right], 2)
        self.stats.td_seconds += time.perf_counter() - started
        self.stats.td_states = len(self._tables.td_states)
        return preds

    def evaluate(self, tree: BinaryTree, *, keep_true_predicates: bool = False) -> EvaluationResult:
        """Run both phases and collect the query answers."""
        states = self.run_bottom_up(tree)
        preds = self.run_top_down(tree, states)
        selected: dict[str, list[int]] = {}
        for query_pred in self.program.query_predicates:
            selected[query_pred] = [node for node in range(len(tree)) if query_pred in preds[node]]
        self.stats.selected = len(selected.get(self.program.query_predicates[0], []))
        self.stats.memory_estimate_kb = self._memory_estimate_kb()
        return EvaluationResult(
            selected=selected,
            true_predicates=preds if keep_true_predicates else None,
            statistics=self.stats,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _memory_estimate_kb(self) -> float:
        """Rough size of the automata hash tables, in kilobytes.

        This mirrors column (10) of Figure 6 in spirit: the dominant dynamic
        memory consumers are the interned residual programs and the two
        transition tables (the per-node structures are streamed / arrays).
        """
        rule_bytes = 0
        for program in self._tables.states:
            for rule in program:
                rule_bytes += 40 + 24 * (len(rule.body) + 1)
        entry_bytes = 64
        table_bytes = entry_bytes * (
            len(self._tables.bu_transitions) + len(self._tables.td_transitions) + len(self._tables.states)
        )
        for preds_set in self._tables.td_transitions.values():
            table_bytes += 24 * len(preds_set)
        return (rule_bytes + table_bytes) / 1024.0

    @property
    def n_bottom_up_states(self) -> int:
        return len(self._tables.states)

    @property
    def n_top_down_states(self) -> int:
        return len(self._tables.td_states)

    @property
    def n_bottom_up_transitions(self) -> int:
        return len(self._tables.bu_transitions)

    @property
    def n_top_down_transitions(self) -> int:
        return len(self._tables.td_transitions)
