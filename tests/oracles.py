"""Reference implementations that only the tests use.

Each one computes, by a different and deliberately naive route, what the
system computes, so a test can compare the two:

* :class:`SelectingTreeAutomaton` -- the explicit selecting tree automaton
  of a TMNF program (Definition 3.2), evaluated by its selection criterion;
* :class:`NaiveXPathEvaluator` -- set-at-a-time XPath by navigating the
  whole tree in memory;
* :func:`summarize_arb_bytes` -- the `.idx` page summaries of a whole `.arb`
  image, recomputed from its bytes alone.

SelectingTreeAutomaton
    An STA is a nondeterministic bottom-up tree automaton with a set ``S`` of
    *selecting* states; it selects node ``v`` iff **every** accepting run is
    in a selecting state at ``v``.  For a TMNF program ``P`` the standard
    translation ([8], sketched in Section 4) produces an STA whose states
    are subsets of ``IDB(P)``; all states are accepting, the runs are exactly
    the assignments that are models of ``P`` over the tree, and the
    selecting states for a query predicate ``q`` are the subsets containing
    ``q``.  Because Horn programs have least models that are the
    intersection of all models, the STA selection criterion coincides with
    the minimum-fixpoint semantics of ``P`` -- which is what makes the
    two-phase deterministic evaluation of Section 4 correct.  The
    construction enumerates the powerset of IDB predicates, so it is
    exponential in ``|IDB(P)|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from repro.errors import EvaluationError, XPathUnsupportedError
from repro.storage.pageindex import PageIndex, SummaryAccumulator
from repro.storage.records import decode_node_value
from repro.tmnf import ast
from repro.tmnf.program import TMNFProgram
from repro.tree import model as tree_model
from repro.tree.binary import NO_NODE, BinaryTree
from repro.xpath.ast import AndExpr, Condition, LocationPath, OrExpr, PathCondition
from repro.xpath.parser import parse_xpath

# --------------------------------------------------------------------------- #
# The explicit selecting tree automaton
# --------------------------------------------------------------------------- #

#: Practical bound on |IDB| for the explicit powerset construction.
MAX_EXPLICIT_IDB = 12


def _powerset(items: frozenset[str]):
    ordered = sorted(items)
    return chain.from_iterable(combinations(ordered, size) for size in range(len(ordered) + 1))


@dataclass
class SelectingTreeAutomaton:
    """An explicit STA derived from a TMNF program."""

    program: TMNFProgram
    selecting_predicate: str

    def __post_init__(self) -> None:
        idb = self.program.idb_predicates
        if len(idb) > MAX_EXPLICIT_IDB:
            raise EvaluationError(
                f"explicit STA construction limited to {MAX_EXPLICIT_IDB} IDB predicates "
                f"(program has {len(idb)}); use TwoPhaseEvaluator instead"
            )
        if self.selecting_predicate not in idb:
            raise EvaluationError(f"unknown query predicate {self.selecting_predicate!r}")
        self._idb = idb
        self._local: list[ast.LocalRule] = []
        self._down: list[ast.DownRule] = []
        self._up: list[ast.UpRule] = []
        for rule in self.program.internal_rules:
            if isinstance(rule, ast.LocalRule):
                self._local.append(rule)
            elif isinstance(rule, ast.DownRule):
                self._down.append(rule)
            elif isinstance(rule, ast.UpRule):
                self._up.append(rule)

    # ------------------------------------------------------------------ #
    # The transition relation
    # ------------------------------------------------------------------ #

    def states(self) -> list[frozenset[str]]:
        """All states of the automaton (the powerset of IDB predicates)."""
        return [frozenset(subset) for subset in _powerset(self._idb)]

    def is_selecting(self, state: frozenset[str]) -> bool:
        return self.selecting_predicate in state

    def transition_allowed(
        self,
        state: frozenset[str],
        left: frozenset[str] | None,
        right: frozenset[str] | None,
        tree: BinaryTree,
        node: int,
    ) -> bool:
        """Whether assigning ``state`` at ``node`` is locally consistent.

        ``left`` / ``right`` are the child assignments (``None`` if the child
        does not exist).  The conditions are exactly "the assignment is closed
        under every rule whose atoms touch only this node and its children".
        """
        for rule in self._local:
            if rule.head in state:
                continue
            satisfied = True
            for atom in rule.body:
                if ast.is_unary_edb(atom) or atom == ast.UNIVERSE:
                    if not tree_model.unary_holds(tree, node, atom):
                        satisfied = False
                        break
                elif atom not in state:
                    # IDB atom (possibly never defined by any rule head).
                    satisfied = False
                    break
            if satisfied:
                return False
        for rule in self._down:
            child = left if rule.relation == tree_model.FIRST_CHILD else right
            if child is None:
                continue
            if rule.body_pred in state and rule.head not in child:
                return False
        for rule in self._up:
            child = left if rule.relation == tree_model.FIRST_CHILD else right
            if child is None:
                continue
            if rule.body_pred in child and rule.head not in state:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Direct evaluation of the STA selection criterion
    # ------------------------------------------------------------------ #

    def evaluate(self, tree: BinaryTree) -> list[int]:
        """Nodes selected by the STA (every accepting run is selecting there)."""
        n = len(tree)
        all_states = self.states()

        # Pass 1 (bottom-up): reachable[v] = states some run on v's subtree
        # assigns to v while being locally consistent within the subtree.
        reachable: list[set[frozenset[str]]] = [set() for _ in range(n)]
        for node in range(n - 1, -1, -1):
            left = tree.first_child[node]
            right = tree.second_child[node]
            left_options = reachable[left] if left != NO_NODE else {None}
            right_options = reachable[right] if right != NO_NODE else {None}
            for state in all_states:
                allowed = False
                for ls in left_options:
                    for rs in right_options:
                        if self.transition_allowed(state, ls, rs, tree, node):
                            allowed = True
                            break
                    if allowed:
                        break
                if allowed:
                    reachable[node].add(state)

        if not reachable[tree.root]:
            # No accepting run at all; by Definition 3.2 every node is then
            # (vacuously) selected.  This never happens for the STAs obtained
            # from TMNF programs (every tree has at least its least model),
            # but the definition is honoured for completeness.
            return list(range(n))

        # Pass 2 (top-down): viable[v] = reachable states at v that extend to
        # an accepting run over the whole tree.  All states are accepting, so
        # viable[root] = reachable[root].
        viable: list[set[frozenset[str]]] = [set() for _ in range(n)]
        viable[tree.root] = set(reachable[tree.root])
        for node in range(n):
            left = tree.first_child[node]
            right = tree.second_child[node]
            if left == NO_NODE and right == NO_NODE:
                continue
            left_options = reachable[left] if left != NO_NODE else {None}
            right_options = reachable[right] if right != NO_NODE else {None}
            viable_left: set[frozenset[str]] = set()
            viable_right: set[frozenset[str]] = set()
            for state in viable[node]:
                for ls in left_options:
                    for rs in right_options:
                        if self.transition_allowed(state, ls, rs, tree, node):
                            if ls is not None:
                                viable_left.add(ls)
                            if rs is not None:
                                viable_right.add(rs)
            if left != NO_NODE:
                viable[left] = viable_left
            if right != NO_NODE:
                viable[right] = viable_right

        selected = []
        for node in range(n):
            options = viable[node]
            if options and all(self.is_selecting(state) for state in options):
                selected.append(node)
        return selected


# --------------------------------------------------------------------------- #
# Naive navigational XPath
# --------------------------------------------------------------------------- #


class NaiveXPathEvaluator:
    """Evaluate the supported XPath fragment by explicit navigation."""

    def __init__(self, tree: BinaryTree):
        self.tree = tree
        self.parent = tree.parents()
        # Unranked children lists and sibling orders, derived once.
        self.children: list[list[int]] = [[] for _ in range(len(tree))]
        for node in range(len(tree)):
            child = tree.first_child[node]
            while child != NO_NODE:
                self.children[node].append(child)
                child = tree.second_child[child]
        self.unranked_parent = [NO_NODE] * len(tree)
        for node, kids in enumerate(self.children):
            for kid in kids:
                self.unranked_parent[kid] = node

    # ------------------------------------------------------------------ #
    # Axes (unranked-tree semantics)
    # ------------------------------------------------------------------ #

    def axis(self, node: int, name: str) -> list[int]:
        if name == "self":
            return [node]
        if name == "child":
            return list(self.children[node])
        if name == "descendant":
            result: list[int] = []
            stack = list(reversed(self.children[node]))
            while stack:
                current = stack.pop()
                result.append(current)
                stack.extend(reversed(self.children[current]))
            return result
        if name == "descendant-or-self":
            return [node, *self.axis(node, "descendant")]
        if name == "parent":
            parent = self.unranked_parent[node]
            return [parent] if parent != NO_NODE else []
        if name == "ancestor":
            result = []
            parent = self.unranked_parent[node]
            while parent != NO_NODE:
                result.append(parent)
                parent = self.unranked_parent[parent]
            return result
        if name == "ancestor-or-self":
            return [node, *self.axis(node, "ancestor")]
        if name == "following-sibling":
            return self._siblings(node, after=True)
        if name == "preceding-sibling":
            return self._siblings(node, after=False)
        if name == "following":
            seen: set[int] = set()
            result = []
            for anchor in self.axis(node, "ancestor-or-self"):
                for sibling in self._siblings(anchor, after=True):
                    for reached in self.axis(sibling, "descendant-or-self"):
                        if reached not in seen:
                            seen.add(reached)
                            result.append(reached)
            return result
        if name == "preceding":
            seen = set()
            result = []
            for anchor in self.axis(node, "ancestor-or-self"):
                for sibling in self._siblings(anchor, after=False):
                    for reached in self.axis(sibling, "descendant-or-self"):
                        if reached not in seen:
                            seen.add(reached)
                            result.append(reached)
            return result
        raise XPathUnsupportedError(f"axis {name!r} is not supported")

    def _siblings(self, node: int, *, after: bool) -> list[int]:
        parent = self.unranked_parent[node]
        if parent == NO_NODE:
            return []
        siblings = self.children[parent]
        position = siblings.index(node)
        return siblings[position + 1 :] if after else siblings[:position]

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, expression: str | LocationPath) -> list[int]:
        path = parse_xpath(expression) if isinstance(expression, str) else expression
        return sorted(self._evaluate_path(path, context=None))

    def _evaluate_path(self, path: LocationPath, context: int | None) -> set[int]:
        steps = list(path.steps)
        if path.absolute:
            first = steps.pop(0)
            if first.axis == "child":
                candidates = {self.tree.root}
            elif first.axis in ("descendant", "descendant-or-self"):
                candidates = set(range(len(self.tree)))
            else:
                raise XPathUnsupportedError(
                    f"axis {first.axis!r} cannot be applied to the document node"
                )
            current = {
                node
                for node in candidates
                if self._test(node, first.test) and self._predicates(node, first.predicates)
            }
        else:
            start = self.tree.root if context is None else context
            current = {start}
        for step in steps:
            result: set[int] = set()
            for node in current:
                for candidate in self.axis(node, step.axis):
                    if candidate in result:
                        continue
                    if self._test(candidate, step.test) and self._predicates(
                        candidate, step.predicates
                    ):
                        result.add(candidate)
            current = result
        return current

    def _test(self, node: int, test: str) -> bool:
        return test == "*" or self.tree.labels[node] == test

    def _predicates(self, node: int, predicates) -> bool:
        return all(self._condition(node, condition) for condition in predicates)

    def _condition(self, node: int, condition: Condition) -> bool:
        if isinstance(condition, AndExpr):
            return all(self._condition(node, part) for part in condition.parts)
        if isinstance(condition, OrExpr):
            return any(self._condition(node, part) for part in condition.parts)
        if isinstance(condition, PathCondition):
            return bool(self._evaluate_path(condition.path, context=node))
        raise TypeError(f"unknown condition node: {condition!r}")


def evaluate_xpath_naive(tree: BinaryTree, expression: str) -> list[int]:
    """Evaluate ``expression`` on ``tree`` with the naive navigational evaluator."""
    return NaiveXPathEvaluator(tree).evaluate(expression)


# --------------------------------------------------------------------------- #
# The page summaries of an in-memory `.arb` image
# --------------------------------------------------------------------------- #


def summarize_arb_bytes(
    data: bytes | memoryview,
    *,
    n_records: int,
    record_size: int,
    page_size: int,
    n_label_indices: int,
) -> PageIndex:
    """Summarise a whole `.arb` image held in memory (the oracle of the
    builder's and the splice's summaries; any record size >= 2)."""
    records = [
        decode_node_value(int.from_bytes(data[at : at + record_size], "big"), record_size)
        for at in range(0, n_records * record_size, record_size)
    ]
    # Forward pass: a first child is one deeper, a next sibling is level,
    # and after a last leaf comes the pending sibling of its nearest
    # ancestor that has one.
    depths: list[int] = []
    pending: list[int] = []
    depth = 0
    for record in records:
        depths.append(depth)
        if record.has_first_child:
            if record.has_second_child:
                pending.append(depth)
            depth += 1
        elif not record.has_second_child and pending:
            depth = pending.pop()
    accumulator = SummaryAccumulator(n_records, record_size, page_size)
    for record, depth in zip(reversed(records), reversed(depths)):
        accumulator.add(record.label_index, record.has_first_child, record.has_second_child, depth)
    return accumulator.finish(n_label_indices)
