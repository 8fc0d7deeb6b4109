"""Shared hypothesis strategies for trees, TMNF programs and XPath queries.

The equivalence and collection property suites all need the same raw
material: small random unranked/binary trees over a two-letter alphabet and
random TMNF programs drawn freely from all four rule templates (a generator
restricted to well-known shapes would miss interaction bugs between
up/down/local rules).  Keeping the strategies here keeps the suites in
lockstep -- a signature change lands everywhere at once.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.tmnf import TMNFProgram
from repro.tmnf.ast import DownRule, LocalRule, UpRule
from repro.tree import BinaryTree, UnrankedTree

__all__ = [
    "LABELS",
    "IDB_NAMES",
    "EDB_ATOMS",
    "unranked_trees",
    "binary_trees",
    "tmnf_programs",
    "xpath_queries",
]

LABELS = ("a", "b")
IDB_NAMES = ("X0", "X1", "X2", "X3")
EDB_ATOMS = (
    "Root",
    "-Root",
    "HasFirstChild",
    "-HasFirstChild",
    "HasSecondChild",
    "-HasSecondChild",
    "Label[a]",
    "-Label[a]",
    "Label[b]",
)


def unranked_trees(max_leaves: int = 10):
    """Random unranked trees over :data:`LABELS`."""
    label = st.sampled_from(LABELS)
    nested = st.recursive(
        label,
        lambda children: st.tuples(label, st.lists(children, max_size=3)),
        max_leaves=max_leaves,
    )
    return nested.map(UnrankedTree.from_nested)


def binary_trees(max_leaves: int = 10):
    """The same trees in first-child/next-sibling binary encoding."""
    return unranked_trees(max_leaves).map(BinaryTree.from_unranked)


def _local_rules():
    atoms = st.sampled_from(IDB_NAMES + EDB_ATOMS)
    return st.builds(
        LocalRule,
        head=st.sampled_from(IDB_NAMES),
        body=st.tuples(atoms) | st.tuples(atoms, atoms),
    )


def _down_rules():
    return st.builds(
        DownRule,
        head=st.sampled_from(IDB_NAMES),
        body_pred=st.sampled_from(IDB_NAMES),
        relation=st.sampled_from(("FirstChild", "SecondChild")),
    )


def _up_rules():
    return st.builds(
        UpRule,
        head=st.sampled_from(IDB_NAMES),
        body_pred=st.sampled_from(IDB_NAMES),
        relation=st.sampled_from(("FirstChild", "SecondChild")),
    )


def tmnf_programs(max_rules: int = 6):
    """Random TMNF programs mixing local, down and up rules.

    Every program carries one seeding rule so that it is not vacuously
    empty; its head is the query predicate.
    """
    rule = st.one_of(_local_rules(), _down_rules(), _up_rules())
    seed = st.builds(
        LocalRule,
        head=st.sampled_from(IDB_NAMES),
        body=st.sampled_from([("Label[a]",), ("Root",), ("-HasFirstChild",), ()]),
    )
    return st.tuples(seed, st.lists(rule, min_size=1, max_size=max_rules)).map(
        lambda pair: TMNFProgram.from_rules(
            [pair[0], *pair[1]], query_predicates=pair[0].head
        )
    )


def xpath_queries(max_steps: int = 4):
    """Random predicate-free downward XPath paths, e.g. ``/a//b/*``.

    This is exactly the fragment the one-pass streaming engine accepts, so
    the differential suite can run the same query on all four evaluators.
    """
    step = st.tuples(st.sampled_from(("/", "//")), st.sampled_from(LABELS + ("*",)))
    return st.lists(step, min_size=1, max_size=max_steps).map(
        lambda steps: "".join(f"{axis}{test}" for axis, test in steps)
    )
