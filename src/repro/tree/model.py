"""The relational view of binary trees (EDB predicates).

Section 2.1 of the paper models a binary tree as a relational database with
unary relations ``V``, ``Root``, ``HasFirstChild``, ``HasSecondChild`` and
``Label[l]`` for each label ``l``, binary relations ``FirstChild`` and
``SecondChild``, and a complement predicate ``-U`` for every unary relation
``U``.  TMNF programs additionally use the aliases ``NextSibling`` (for
``SecondChild``), ``Leaf`` (for ``-HasFirstChild``) and ``LastSibling`` (for
``-HasSecondChild``).

This module fixes the textual predicate names used throughout the library,
provides alias normalisation, and computes the *label set* of a node --- the
set of unary EDB predicates from a program's schema that hold at the node.
The label set is the alphabet symbol seen by the bottom-up automaton
(``Sigma^A = 2^sigma``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tree.binary import NO_NODE, BinaryTree

__all__ = [
    "ROOT",
    "HAS_FIRST_CHILD",
    "HAS_SECOND_CHILD",
    "FIRST_CHILD",
    "SECOND_CHILD",
    "INV_FIRST_CHILD",
    "INV_SECOND_CHILD",
    "UNARY_BUILTINS",
    "BINARY_RELATIONS",
    "label_predicate",
    "is_label_predicate",
    "label_of_predicate",
    "negate",
    "is_negative",
    "positive_form",
    "normalize_unary",
    "normalize_binary",
    "invert_binary",
    "unary_holds",
    "NodeSchema",
]

# Canonical unary relation names.
ROOT = "Root"
HAS_FIRST_CHILD = "HasFirstChild"
HAS_SECOND_CHILD = "HasSecondChild"

# Canonical binary relation names (and their inverses as used in rule syntax).
FIRST_CHILD = "FirstChild"
SECOND_CHILD = "SecondChild"
INV_FIRST_CHILD = "invFirstChild"
INV_SECOND_CHILD = "invSecondChild"

#: Canonical unary built-ins (positive forms).
UNARY_BUILTINS = (ROOT, HAS_FIRST_CHILD, HAS_SECOND_CHILD)

#: Canonical binary relations (forward forms).
BINARY_RELATIONS = (FIRST_CHILD, SECOND_CHILD)

# Alias tables.  Aliases are resolved once, at parse time, so the evaluator
# only ever sees canonical names.
_UNARY_ALIASES = {
    "Leaf": "-" + HAS_FIRST_CHILD,
    "LastSibling": "-" + HAS_SECOND_CHILD,
    "IsRoot": ROOT,
}
_BINARY_ALIASES = {
    "NextSibling": SECOND_CHILD,
    "invNextSibling": INV_SECOND_CHILD,
    "Child1": FIRST_CHILD,
    "Child2": SECOND_CHILD,
}
_INVERSES = {
    FIRST_CHILD: INV_FIRST_CHILD,
    SECOND_CHILD: INV_SECOND_CHILD,
    INV_FIRST_CHILD: FIRST_CHILD,
    INV_SECOND_CHILD: SECOND_CHILD,
}


def label_predicate(label: str) -> str:
    """The unary EDB predicate asserting that a node carries ``label``."""
    return f"Label[{label}]"


def is_label_predicate(name: str) -> bool:
    positive = positive_form(name)
    return positive.startswith("Label[") and positive.endswith("]")


def label_of_predicate(name: str) -> str:
    """Extract ``l`` from ``Label[l]`` (or ``-Label[l]``)."""
    positive = positive_form(name)
    if not is_label_predicate(positive):
        raise ValueError(f"not a label predicate: {name!r}")
    return positive[len("Label["):-1]


def negate(name: str) -> str:
    """Complement a unary predicate name (``U`` <-> ``-U``)."""
    return name[1:] if name.startswith("-") else "-" + name


def is_negative(name: str) -> bool:
    return name.startswith("-")


def positive_form(name: str) -> str:
    return name[1:] if name.startswith("-") else name


def normalize_unary(name: str) -> str:
    """Resolve aliases of a unary EDB predicate to its canonical form.

    ``Leaf`` becomes ``-HasFirstChild``, ``LastSibling`` becomes
    ``-HasSecondChild``; a leading ``-`` is handled before and after alias
    resolution, so ``-Leaf`` normalises to ``HasFirstChild``.
    """
    negative = name.startswith("-")
    core = name[1:] if negative else name
    resolved = _UNARY_ALIASES.get(core, core)
    if negative:
        resolved = negate(resolved)
    return resolved


def normalize_binary(name: str) -> str:
    """Resolve aliases of a binary relation (or inverse) to canonical form."""
    return _BINARY_ALIASES.get(name, name)


def invert_binary(name: str) -> str:
    """Return the inverse relation of a canonical binary relation name."""
    canonical = normalize_binary(name)
    if canonical not in _INVERSES:
        raise ValueError(f"unknown binary relation: {name!r}")
    return _INVERSES[canonical]


def unary_holds(tree: BinaryTree, node: int, predicate: str) -> bool:
    """Whether a (normalised) unary EDB predicate holds at ``node`` of ``tree``.

    Used by the reference fixpoint evaluator and the naive XPath baseline; the
    automata-based engines go through :class:`NodeSchema` label sets instead.
    """
    if predicate == "V":
        return True
    negative = is_negative(predicate)
    core = positive_form(predicate)
    if core == ROOT:
        value = node == tree.root
    elif core == HAS_FIRST_CHILD:
        value = tree.first_child[node] != NO_NODE
    elif core == HAS_SECOND_CHILD:
        value = tree.second_child[node] != NO_NODE
    elif is_label_predicate(core):
        value = tree.labels[node] == label_of_predicate(core)
    else:
        raise ValueError(f"unknown unary EDB predicate: {predicate!r}")
    return not value if negative else value


@dataclass(frozen=True)
class NodeSchema:
    """The unary EDB schema a program cares about.

    The bottom-up automaton's alphabet is ``2^sigma`` where ``sigma`` is the
    set of unary EDB predicates mentioned by the program (Section 4).  Only
    the predicates in ``sigma`` are materialised in node label sets, which
    keeps the alphabet -- and therefore the number of distinct transitions --
    small.

    Attributes
    ----------
    positive_labels:
        Labels ``l`` such that ``Label[l]`` occurs (positively) in the program.
    negative_labels:
        Labels ``l`` such that ``-Label[l]`` occurs in the program.
    builtins:
        The subset of {Root, HasFirstChild, HasSecondChild} whose positive or
        negative form occurs in the program.
    """

    positive_labels: frozenset[str]
    negative_labels: frozenset[str]
    builtins: frozenset[str]

    @classmethod
    def from_predicates(cls, unary_edb_predicates) -> "NodeSchema":
        """Build a schema from an iterable of (already normalised) unary EDB names."""
        positive_labels = set()
        negative_labels = set()
        builtins = set()
        for name in unary_edb_predicates:
            core = positive_form(name)
            if is_label_predicate(core):
                label = label_of_predicate(core)
                if is_negative(name):
                    negative_labels.add(label)
                else:
                    positive_labels.add(label)
            else:
                if core not in UNARY_BUILTINS:
                    raise ValueError(f"unknown unary EDB predicate: {name!r}")
                builtins.add(core)
        return cls(frozenset(positive_labels), frozenset(negative_labels), frozenset(builtins))

    def all_predicates(self) -> frozenset[str]:
        """Every predicate that can occur in a label set produced by this schema.

        Both polarities of every built-in and every negatively mentioned label
        are included; the evaluator treats this whole set as EDB so that no
        EDB predicate ever survives into a residual program (Section 4.1).
        """
        preds: set[str] = set()
        for label in self.positive_labels:
            preds.add(label_predicate(label))
        for label in self.negative_labels:
            preds.add(label_predicate(label))
            preds.add(negate(label_predicate(label)))
        for builtin in self.builtins:
            preds.add(builtin)
            preds.add(negate(builtin))
        return frozenset(preds)

    def node_label_set(self, tree: BinaryTree, node: int) -> frozenset[str]:
        """The set of schema predicates true at ``node`` of ``tree``.

        This is the alphabet symbol ``Sigma^A(node)`` fed to
        ``ComputeReachableStates``.
        """
        facts: list[str] = []
        label = tree.labels[node]
        if label in self.positive_labels:
            facts.append(label_predicate(label))
        for neg in self.negative_labels:
            if neg != label:
                facts.append(negate(label_predicate(neg)))
        if ROOT in self.builtins:
            facts.append(ROOT if node == tree.root else negate(ROOT))
        if HAS_FIRST_CHILD in self.builtins:
            has = tree.first_child[node] != NO_NODE
            facts.append(HAS_FIRST_CHILD if has else negate(HAS_FIRST_CHILD))
        if HAS_SECOND_CHILD in self.builtins:
            has = tree.second_child[node] != NO_NODE
            facts.append(HAS_SECOND_CHILD if has else negate(HAS_SECOND_CHILD))
        return frozenset(facts)

    def label_set_for(
        self,
        label: str,
        *,
        is_root: bool,
        has_first_child: bool,
        has_second_child: bool,
    ) -> frozenset[str]:
        """Like :meth:`node_label_set`, but from explicit node properties.

        Used by the secondary-storage engine, which never materialises a
        :class:`BinaryTree` and only knows the current record's label and
        child flags.
        """
        facts: list[str] = []
        if label in self.positive_labels:
            facts.append(label_predicate(label))
        for neg in self.negative_labels:
            if neg != label:
                facts.append(negate(label_predicate(neg)))
        if ROOT in self.builtins:
            facts.append(ROOT if is_root else negate(ROOT))
        if HAS_FIRST_CHILD in self.builtins:
            facts.append(HAS_FIRST_CHILD if has_first_child else negate(HAS_FIRST_CHILD))
        if HAS_SECOND_CHILD in self.builtins:
            facts.append(HAS_SECOND_CHILD if has_second_child else negate(HAS_SECOND_CHILD))
        return frozenset(facts)

    def neutral_label_set(
        self,
        *,
        is_root: bool,
        has_first_child: bool,
        has_second_child: bool,
    ) -> frozenset[str]:
        """The label set of any *irrelevant* label with the given node flags.

        Every label outside ``positive_labels | negative_labels`` produces
        the same label set for a fixed flag combination (it asserts no
        positive label and misses every negative label), which is what makes
        whole pages of such labels indistinguishable to the automaton -- the
        foundation of the page-skipping index.
        """
        facts: list[str] = []
        for neg in self.negative_labels:
            facts.append(negate(label_predicate(neg)))
        if ROOT in self.builtins:
            facts.append(ROOT if is_root else negate(ROOT))
        if HAS_FIRST_CHILD in self.builtins:
            facts.append(HAS_FIRST_CHILD if has_first_child else negate(HAS_FIRST_CHILD))
        if HAS_SECOND_CHILD in self.builtins:
            facts.append(HAS_SECOND_CHILD if has_second_child else negate(HAS_SECOND_CHILD))
        return frozenset(facts)
