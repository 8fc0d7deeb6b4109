"""Tree automata on binary trees (Section 3).

These classes provide the textbook automaton model the paper builds on:
nondeterministic and deterministic bottom-up tree automata, and the weak
top-down automata used for the second phase.  They are *explicit* automata
(states and transition tables enumerated up front) and are used for the
theory-level cross-validation tests and for small illustrative examples; the
production evaluator (:mod:`repro.core.two_phase`) represents its automata
implicitly, with lazily computed transitions.

The pseudo-state for missing children is represented by ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.errors import EvaluationError
from repro.tree.binary import NO_NODE, BinaryTree

__all__ = [
    "NondeterministicBottomUpAutomaton",
    "DeterministicBottomUpAutomaton",
    "TopDownAutomaton",
    "StateInterner",
]

State = Hashable
Symbol = Hashable


class StateInterner:
    """Dense integer ids for hashable automaton states.

    The bridge from the hashable-state automaton model to table form: id 0
    is the first value ever interned and ids grow densely, so interned ids
    index directly into arrays (``values`` is the inverse mapping).  Used by
    the two-phase disk loop (:mod:`repro.plan.kernel`) to number its
    composite states, and available wherever an explicit automaton needs its
    states enumerated.
    """

    __slots__ = ("_ids", "values")

    def __init__(self, values: Iterable[State] = ()) -> None:
        self.values: list[State] = []
        self._ids: dict[State, int] = {}
        for value in values:
            self.intern(value)

    def intern(self, value: State) -> int:
        """The id of ``value``, assigning the next dense id on first sight."""
        found = self._ids.get(value)
        if found is None:
            found = self._ids[value] = len(self.values)
            self.values.append(value)
        return found

    def get(self, value: State) -> int | None:
        """The id of ``value`` if already interned, else ``None``."""
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, state_id: int) -> State:
        return self.values[state_id]


@dataclass
class NondeterministicBottomUpAutomaton:
    """A non-deterministic bottom-up tree automaton ``(Q, Sigma, F, delta)``.

    ``delta`` maps ``(left_state_or_None, right_state_or_None, symbol)`` to a
    set of states.  ``symbol_of`` extracts the alphabet symbol from a tree
    node (by default, the node label).
    """

    states: frozenset[State]
    alphabet: frozenset[Symbol]
    accepting: frozenset[State]
    delta: dict[tuple[State | None, State | None, Symbol], frozenset[State]]
    symbol_of: Callable[[BinaryTree, int], Symbol] = field(
        default=lambda tree, node: tree.labels[node]
    )

    def reachable_states(self, tree: BinaryTree) -> list[frozenset[State]]:
        """For every node, the set of states some run can assign to it."""
        n = len(tree)
        reach: list[frozenset[State]] = [frozenset()] * n
        for node in range(n - 1, -1, -1):
            left = tree.first_child[node]
            right = tree.second_child[node]
            left_states: Iterable[State | None] = reach[left] if left != NO_NODE else (None,)
            right_states: Iterable[State | None] = reach[right] if right != NO_NODE else (None,)
            symbol = self.symbol_of(tree, node)
            here: set[State] = set()
            for ls in left_states:
                for rs in right_states:
                    here.update(self.delta.get((ls, rs, symbol), frozenset()))
            reach[node] = frozenset(here)
        return reach

    def accepts(self, tree: BinaryTree) -> bool:
        """Whether some run assigns an accepting state to the root."""
        return bool(self.reachable_states(tree)[tree.root] & self.accepting)

    def runs(self, tree: BinaryTree, limit: int = 100_000) -> list[dict[int, State]]:
        """Enumerate all runs (assignments of states to nodes).

        Exponential; only intended for the small trees used in tests.
        ``limit`` bounds the number of runs to protect against mistakes.
        """
        n = len(tree)
        partial: list[dict[int, State]] = [{}]
        for node in range(n - 1, -1, -1):
            left = tree.first_child[node]
            right = tree.second_child[node]
            symbol = self.symbol_of(tree, node)
            extended: list[dict[int, State]] = []
            for assignment in partial:
                ls = assignment.get(left) if left != NO_NODE else None
                rs = assignment.get(right) if right != NO_NODE else None
                for state in self.delta.get((ls, rs, symbol), frozenset()):
                    new_assignment = dict(assignment)
                    new_assignment[node] = state
                    extended.append(new_assignment)
                    if len(extended) > limit:
                        raise EvaluationError("too many runs to enumerate")
            partial = extended
        return partial

    def accepting_runs(self, tree: BinaryTree, limit: int = 100_000) -> list[dict[int, State]]:
        return [run for run in self.runs(tree, limit) if run[tree.root] in self.accepting]


@dataclass
class DeterministicBottomUpAutomaton:
    """A deterministic bottom-up tree automaton: ``delta`` maps to one state."""

    states: frozenset[State]
    alphabet: frozenset[Symbol]
    accepting: frozenset[State]
    delta: dict[tuple[State | None, State | None, Symbol], State]
    symbol_of: Callable[[BinaryTree, int], Symbol] = field(
        default=lambda tree, node: tree.labels[node]
    )

    def run(self, tree: BinaryTree) -> list[State]:
        """The unique run: one state per node."""
        n = len(tree)
        assignment: list[State] = [None] * n
        for node in range(n - 1, -1, -1):
            left = tree.first_child[node]
            right = tree.second_child[node]
            ls = assignment[left] if left != NO_NODE else None
            rs = assignment[right] if right != NO_NODE else None
            symbol = self.symbol_of(tree, node)
            key = (ls, rs, symbol)
            if key not in self.delta:
                raise EvaluationError(f"no transition for {key!r}")
            assignment[node] = self.delta[key]
        return assignment

    def accepts(self, tree: BinaryTree) -> bool:
        return self.run(tree)[tree.root] in self.accepting


@dataclass
class TopDownAutomaton:
    """The weak deterministic top-down automaton of Section 3.

    ``delta1`` and ``delta2`` map ``(parent_state, child_symbol)`` to the
    child's state; there is no acceptance condition -- the automaton's only
    purpose is to annotate nodes with states.
    """

    states: frozenset[State]
    alphabet: frozenset[Symbol]
    start: State
    delta1: dict[tuple[State, Symbol], State]
    delta2: dict[tuple[State, Symbol], State]
    symbol_of: Callable[[BinaryTree, int], Symbol] = field(
        default=lambda tree, node: tree.labels[node]
    )

    def run(self, tree: BinaryTree) -> list[State]:
        n = len(tree)
        assignment: list[State] = [None] * n
        assignment[tree.root] = self.start
        for node in range(n):
            state = assignment[node]
            left = tree.first_child[node]
            if left != NO_NODE:
                key = (state, self.symbol_of(tree, left))
                if key not in self.delta1:
                    raise EvaluationError(f"no delta1 transition for {key!r}")
                assignment[left] = self.delta1[key]
            right = tree.second_child[node]
            if right != NO_NODE:
                key = (state, self.symbol_of(tree, right))
                if key not in self.delta2:
                    raise EvaluationError(f"no delta2 transition for {key!r}")
                assignment[right] = self.delta2[key]
        return assignment
