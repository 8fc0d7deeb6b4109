"""One-pass streaming path-query engine (the baseline the paper argues against).

This implements the standard approach for matching simple downward path
queries on streaming XML (Green et al. [12], as discussed in the paper's
introduction): the query -- child / descendant steps with tag or ``*`` tests
only -- is compiled to an NFA over the sequence of open tags on the path from
the root; at run time a stack of NFA state *sets* (determinised lazily, so
this is effectively a lazy DFA) tracks the current path while SAX events
stream by.  A node is reported the moment its start event arrives in an
accepting state.

The engine demonstrates both sides of the paper's positioning:

* for the queries it supports it reads the document **once** and uses memory
  bounded by the document depth (times the DFA size), and
* it is far less expressive than the tree-automata engine: no upward or
  sideways axes, no filters that look into the future, no bottom-up
  selection -- queries like the ACGT-flat / ACGT-infix benchmarks or the
  Even/Odd example are simply not expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import XPathUnsupportedError
from repro.tree.unranked import UnrankedTree
from repro.tree.xml_io import END, START, tree_to_sax_events
from repro.xpath.ast import LocationPath
from repro.xpath.parser import parse_xpath

__all__ = ["StreamPathQuery", "StreamingEngine", "stream_select"]


@dataclass(frozen=True)
class _NfaTransition:
    """One step of the path NFA: match a tag (or any), possibly skipping levels."""

    test: str  # tag name or "*"
    closure: bool  # True for //: any number of intermediate elements


class StreamPathQuery:
    """A compiled downward path query (child / descendant steps only)."""

    def __init__(self, expression: str | LocationPath):
        path = parse_xpath(expression) if isinstance(expression, str) else expression
        if not path.absolute:
            raise XPathUnsupportedError("streaming queries must be absolute (start with / or //)")
        self.transitions: list[_NfaTransition] = []
        for step in path.steps:
            if step.predicates:
                raise XPathUnsupportedError(
                    "streaming queries cannot use predicates (no lookahead on a stream)"
                )
            if step.axis == "child":
                self.transitions.append(_NfaTransition(step.test, closure=False))
            elif step.axis == "descendant-or-self" and step.test == "*":
                # marker produced by '//' -- fold into the next transition
                self.transitions.append(_NfaTransition("*", closure=True))
            elif step.axis == "descendant":
                self.transitions.append(_NfaTransition("*", closure=True))
                self.transitions.append(_NfaTransition(step.test, closure=False))
            else:
                raise XPathUnsupportedError(
                    f"axis {step.axis!r} is not supported on streams (downward axes only)"
                )
        # Merge '//' markers with the step that follows them.
        merged: list[_NfaTransition] = []
        pending_closure = False
        for transition in self.transitions:
            if transition.closure and transition.test == "*":
                pending_closure = True
                continue
            merged.append(_NfaTransition(transition.test, closure=pending_closure))
            pending_closure = False
        if pending_closure:
            merged.append(_NfaTransition("*", closure=True))
        self.transitions = merged
        self.n_states = len(self.transitions) + 1  # state i = i transitions matched

    def initial_state(self) -> frozenset[int]:
        return frozenset({0})

    def advance(self, states: frozenset[int], tag: str) -> frozenset[int]:
        """NFA state set after reading one more open tag on the current path."""
        result: set[int] = set()
        for state in states:
            if state < len(self.transitions):
                transition = self.transitions[state]
                if transition.test == "*" or transition.test == tag:
                    result.add(state + 1)
                if transition.closure:
                    result.add(state)  # stay: the // gap absorbs this element
        return frozenset(result)

    def is_accepting(self, states: frozenset[int]) -> bool:
        return self.n_states - 1 in states


class StreamingEngine:
    """Run compiled path queries over SAX event streams with a lazy DFA.

    An engine is reusable: :meth:`select` may be called any number of times
    (over any SAX event stream, e.g. :func:`repro.tree.xml_io.iter_sax_events`),
    and the lazily determinised transitions accumulate across runs.
    """

    def __init__(self, query: StreamPathQuery | str):
        self.query = query if isinstance(query, StreamPathQuery) else StreamPathQuery(query)
        # Lazy DFA: memoised transitions between state *sets*.
        self._dfa: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        self.dfa_transitions_computed = 0
        self.max_stack_depth = 0

    def _advance(self, states: frozenset[int], tag: str) -> frozenset[int]:
        key = (states, tag)
        cached = self._dfa.get(key)
        if cached is None:
            cached = self.query.advance(states, tag)
            self._dfa[key] = cached
            self.dfa_transitions_computed += 1
        return cached

    def select(self, events: Iterable[tuple[str, str]]) -> Iterator[int]:
        """Yield ids (document order) of selected nodes, in one pass."""
        stack: list[frozenset[int]] = [self.query.initial_state()]
        node_id = -1
        for kind, label in events:
            if kind == START:
                node_id += 1
                states = self._advance(stack[-1], label)
                stack.append(states)
                if len(stack) > self.max_stack_depth:
                    self.max_stack_depth = len(stack)
                if self.query.is_accepting(states):
                    yield node_id
            elif kind == END:
                stack.pop()

    def select_from_tree(self, tree: UnrankedTree) -> list[int]:
        return list(self.select(tree_to_sax_events(tree)))


def stream_select(tree: UnrankedTree, expression: str) -> list[int]:
    """One-pass selection of ``expression`` (downward path query) on ``tree``."""
    return StreamingEngine(expression).select_from_tree(tree)
