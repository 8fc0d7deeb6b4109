"""Caterpillar expressions: regular expressions over tree relations.

A caterpillar expression (Bruggemann-Klein & Wood; Section 2.2 of the paper)
is a regular expression over an alphabet of *steps*.  A step is either

* a **move** along a binary relation -- ``FirstChild``, ``SecondChild``
  (alias ``NextSibling``) or one of their inverses -- or
* a **test** of a unary predicate at the current node -- ``Label[a]``,
  ``Root``, ``Leaf`` (= ``-HasFirstChild``), ``LastSibling``
  (= ``-HasSecondChild``), their complements, or ``V`` (always true).

A walk in the tree matches the expression if the sequence of moves/tests it
performs spells a word of the regular language.  ``Q :- P.R;`` then marks
``Q`` on every node where such a walk starting at a ``P``-node can end.

This module defines the expression AST, conversion to a small epsilon-free
NFA (Thompson construction followed by epsilon elimination), and reversal
(used by the XPath translator for filter predicates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.tree import model as tree_model

__all__ = [
    "CatExpr",
    "Step",
    "Epsilon",
    "Concat",
    "Alt",
    "Star",
    "Plus",
    "Optional",
    "concat",
    "alternation",
    "step",
    "StepNFA",
    "expr_size",
    "reverse_expr",
]


@dataclass(frozen=True, slots=True)
class Step:
    """A single alphabet symbol: a move or a unary test (already normalised)."""

    name: str

    def is_move(self) -> bool:
        return self.name in (
            tree_model.FIRST_CHILD,
            tree_model.SECOND_CHILD,
            tree_model.INV_FIRST_CHILD,
            tree_model.INV_SECOND_CHILD,
        )

    def is_test(self) -> bool:
        return not self.is_move()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Epsilon:
    """The empty walk."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple["CatExpr", ...]

    def __str__(self) -> str:
        return ".".join(_wrap(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Alt:
    parts: tuple["CatExpr", ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class Star:
    inner: "CatExpr"

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}*"


@dataclass(frozen=True, slots=True)
class Plus:
    inner: "CatExpr"

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}+"


@dataclass(frozen=True, slots=True)
class Optional:
    inner: "CatExpr"

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}?"


CatExpr = Union[Step, Epsilon, Concat, Alt, Star, Plus, Optional]


def _wrap(expr: "CatExpr") -> str:
    text = str(expr)
    if isinstance(expr, (Alt, Concat)) and not text.startswith("("):
        return f"({text})"
    return text


# --------------------------------------------------------------------------- #
# Construction helpers
# --------------------------------------------------------------------------- #


def step(name: str) -> Step:
    """Build a step from a raw name, resolving aliases."""
    if name == "V":
        return Step("V")
    as_binary = tree_model.normalize_binary(name)
    if as_binary in (
        tree_model.FIRST_CHILD,
        tree_model.SECOND_CHILD,
        tree_model.INV_FIRST_CHILD,
        tree_model.INV_SECOND_CHILD,
    ):
        return Step(as_binary)
    return Step(tree_model.normalize_unary(name))


def concat(parts: Sequence[CatExpr]) -> CatExpr:
    """Concatenation with the obvious simplifications (empty -> epsilon)."""
    flat: list[CatExpr] = []
    for part in parts:
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return Epsilon()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alternation(parts: Sequence[CatExpr]) -> CatExpr:
    if not parts:
        return Epsilon()
    if len(parts) == 1:
        return parts[0]
    flat: list[CatExpr] = []
    for part in parts:
        if isinstance(part, Alt):
            flat.extend(part.parts)
        else:
            flat.append(part)
    return Alt(tuple(flat))


def expr_size(expr: CatExpr) -> int:
    """Number of step occurrences (the |w1|+|w2|+|w3| measure of Section 6.2)."""
    if isinstance(expr, Step):
        return 1
    if isinstance(expr, Epsilon):
        return 0
    if isinstance(expr, (Concat, Alt)):
        return sum(expr_size(p) for p in expr.parts)
    return expr_size(expr.inner)


def reverse_expr(expr: CatExpr) -> CatExpr:
    """Reverse an expression: reversed walks with inverted moves.

    Used to evaluate a condition path "backwards" (from its endpoint to the
    context node), e.g. by the XPath translator.
    """
    if isinstance(expr, Step):
        if expr.is_move():
            return Step(tree_model.invert_binary(expr.name))
        return expr
    if isinstance(expr, Epsilon):
        return expr
    if isinstance(expr, Concat):
        return Concat(tuple(reverse_expr(p) for p in reversed(expr.parts)))
    if isinstance(expr, Alt):
        return Alt(tuple(reverse_expr(p) for p in expr.parts))
    if isinstance(expr, Star):
        return Star(reverse_expr(expr.inner))
    if isinstance(expr, Plus):
        return Plus(reverse_expr(expr.inner))
    if isinstance(expr, Optional):
        return Optional(reverse_expr(expr.inner))
    raise TypeError(f"unknown caterpillar expression node: {expr!r}")


# --------------------------------------------------------------------------- #
# NFA construction (Thompson + epsilon elimination)
# --------------------------------------------------------------------------- #


@dataclass
class StepNFA:
    """An epsilon-free NFA over caterpillar steps.

    ``transitions[s]`` is a list of ``(step, target)`` pairs; ``initial`` is
    the single initial state; ``accepting`` the set of accepting states.
    The start state has no incoming transitions, which the compiler relies on
    when seeding start predicates.
    """

    n_states: int = 0
    initial: int = 0
    accepting: set[int] = field(default_factory=set)
    transitions: dict[int, list[tuple[Step, int]]] = field(default_factory=dict)

    def all_edges(self) -> Iterable[tuple[int, Step, int]]:
        for source, edges in self.transitions.items():
            for symbol, target in edges:
                yield source, symbol, target

    @classmethod
    def from_expr(cls, expr: CatExpr) -> "StepNFA":
        """Compile a caterpillar expression into an epsilon-free NFA."""
        builder = _ThompsonBuilder()
        start, end = builder.build(expr)
        return builder.finish(start, end)


class _ThompsonBuilder:
    """Thompson construction with explicit epsilon edges, eliminated at the end."""

    def __init__(self) -> None:
        self.n_states = 0
        self.symbol_edges: list[tuple[int, Step, int]] = []
        self.epsilon_edges: list[tuple[int, int]] = []

    def new_state(self) -> int:
        state = self.n_states
        self.n_states += 1
        return state

    def build(self, expr: CatExpr) -> tuple[int, int]:
        if isinstance(expr, Step):
            start, end = self.new_state(), self.new_state()
            self.symbol_edges.append((start, expr, end))
            return start, end
        if isinstance(expr, Epsilon):
            start, end = self.new_state(), self.new_state()
            self.epsilon_edges.append((start, end))
            return start, end
        if isinstance(expr, Concat):
            start, end = self.build(expr.parts[0])
            for part in expr.parts[1:]:
                next_start, next_end = self.build(part)
                self.epsilon_edges.append((end, next_start))
                end = next_end
            return start, end
        if isinstance(expr, Alt):
            start, end = self.new_state(), self.new_state()
            for part in expr.parts:
                part_start, part_end = self.build(part)
                self.epsilon_edges.append((start, part_start))
                self.epsilon_edges.append((part_end, end))
            return start, end
        if isinstance(expr, Star):
            start, end = self.new_state(), self.new_state()
            inner_start, inner_end = self.build(expr.inner)
            self.epsilon_edges.extend(
                [(start, end), (start, inner_start), (inner_end, inner_start), (inner_end, end)]
            )
            return start, end
        if isinstance(expr, Plus):
            inner_start, inner_end = self.build(expr.inner)
            start, end = self.new_state(), self.new_state()
            self.epsilon_edges.extend(
                [(start, inner_start), (inner_end, end), (inner_end, inner_start)]
            )
            return start, end
        if isinstance(expr, Optional):
            start, end = self.new_state(), self.new_state()
            inner_start, inner_end = self.build(expr.inner)
            self.epsilon_edges.extend([(start, inner_start), (inner_end, end), (start, end)])
            return start, end
        raise TypeError(f"unknown caterpillar expression node: {expr!r}")

    def finish(self, start: int, end: int) -> StepNFA:
        """Eliminate epsilon edges and return an epsilon-free NFA."""
        closure = self._epsilon_closures()
        nfa = StepNFA()
        nfa.n_states = self.n_states
        nfa.initial = start
        for state in range(self.n_states):
            nfa.transitions.setdefault(state, [])
        # A state accepts if its closure contains the Thompson end state.
        for state in range(self.n_states):
            if end in closure[state]:
                nfa.accepting.add(state)
        # state --symbol--> closure-successors: for every symbol edge (u, a, v),
        # every state whose closure contains u gets an edge a -> v.
        by_source: dict[int, list[tuple[Step, int]]] = {}
        for u, symbol, v in self.symbol_edges:
            by_source.setdefault(u, []).append((symbol, v))
        for state in range(self.n_states):
            seen: set[tuple[str, int]] = set()
            for mid in closure[state]:
                for symbol, target in by_source.get(mid, ()):
                    key = (symbol.name, target)
                    if key not in seen:
                        seen.add(key)
                        nfa.transitions[state].append((symbol, target))
        return _prune_unreachable(nfa)

    def _epsilon_closures(self) -> list[set[int]]:
        adjacency: dict[int, list[int]] = {}
        for u, v in self.epsilon_edges:
            adjacency.setdefault(u, []).append(v)
        closures: list[set[int]] = []
        for state in range(self.n_states):
            seen = {state}
            stack = [state]
            while stack:
                current = stack.pop()
                for nxt in adjacency.get(current, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closures.append(seen)
        return closures


def _prune_unreachable(nfa: StepNFA) -> StepNFA:
    """Drop states not reachable from the initial state and renumber densely."""
    reachable = {nfa.initial}
    stack = [nfa.initial]
    while stack:
        state = stack.pop()
        for _symbol, target in nfa.transitions.get(state, ()):
            if target not in reachable:
                reachable.add(target)
                stack.append(target)
    ordering = sorted(reachable)
    renumber = {old: new for new, old in enumerate(ordering)}
    pruned = StepNFA()
    pruned.n_states = len(ordering)
    pruned.initial = renumber[nfa.initial]
    pruned.accepting = {renumber[s] for s in nfa.accepting if s in reachable}
    for old in ordering:
        pruned.transitions[renumber[old]] = [
            (symbol, renumber[target])
            for symbol, target in nfa.transitions.get(old, ())
            if target in reachable
        ]
    return pruned
