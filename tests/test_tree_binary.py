"""Tests for unranked trees and the first-child/next-sibling binary encoding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import TreeError
from repro.tree import BinaryTree, NO_NODE, UnrankedNode, UnrankedTree
from tests.conftest import random_unranked_tree


def nested_trees(max_leaves: int = 12):
    """Hypothesis strategy for nested (label, children) tree specs."""
    labels = st.sampled_from(["a", "b", "c", "d"])
    return st.recursive(
        labels,
        lambda children: st.tuples(labels, st.lists(children, max_size=4)),
        max_leaves=max_leaves,
    )


class TestUnrankedTree:
    def test_from_nested_and_counts(self):
        tree = UnrankedTree.from_nested(("a", ["b", ("c", ["d", "e"]), "f"]))
        assert tree.node_count() == 6
        assert tree.depth() == 2
        assert tree.labels() == {"a", "b", "c", "d", "e", "f"}

    def test_document_order_iteration(self):
        tree = UnrankedTree.from_nested(("a", [("b", ["c"]), "d"]))
        assert [n.label for n in tree.iter_nodes()] == ["a", "b", "c", "d"]

    def test_nested_round_trip(self):
        spec = ("a", ["b", ("c", [("d", ["e"]), "f"])])
        assert UnrankedTree.from_nested(spec).to_nested() == spec

    def test_equals(self):
        a = UnrankedTree.from_nested(("a", ["b", "c"]))
        b = UnrankedTree.from_nested(("a", ["b", "c"]))
        c = UnrankedTree.from_nested(("a", ["c", "b"]))
        assert a.equals(b)
        assert not a.equals(c)

    def test_invalid_nested_spec(self):
        with pytest.raises(TreeError):
            UnrankedTree.from_nested(("a", ["b", 42]))

    def test_deep_tree_does_not_recurse(self):
        # 5000-deep chain; would overflow the interpreter stack if traversals
        # were recursive.
        root = UnrankedNode("r")
        node = root
        for _ in range(5000):
            node = node.add_child(UnrankedNode("x"))
        tree = UnrankedTree(root)
        assert tree.node_count() == 5001
        assert tree.depth() == 5000


class TestBinaryEncoding:
    def test_figure_1_example(self):
        """The encoding of Figure 1: v1(v2, v3(v4, v5, v6))."""
        tree = UnrankedTree.from_nested(("v1", ["v2", ("v3", ["v4", "v5", "v6"])]))
        binary = BinaryTree.from_unranked(tree)
        labels = binary.labels
        # Pre-order/document order.
        assert labels == ["v1", "v2", "v3", "v4", "v5", "v6"]
        v = {name: i for i, name in enumerate(labels)}
        assert binary.first_child[v["v1"]] == v["v2"]
        assert binary.second_child[v["v2"]] == v["v3"]
        assert binary.first_child[v["v3"]] == v["v4"]
        assert binary.second_child[v["v4"]] == v["v5"]
        assert binary.second_child[v["v5"]] == v["v6"]
        assert binary.second_child[v["v1"]] == NO_NODE
        assert binary.first_child[v["v2"]] == NO_NODE

    def test_validate_passes_on_encoded_trees(self):
        rng = random.Random(7)
        for _ in range(25):
            tree = random_unranked_tree(rng, max_nodes=30)
            BinaryTree.from_unranked(tree).validate()

    def test_single_node(self):
        binary = BinaryTree.from_unranked(UnrankedTree(UnrankedNode("only")))
        assert len(binary) == 1
        assert binary.is_leaf(0)
        assert binary.is_last_sibling(0)

    def test_empty_tree_rejected(self):
        with pytest.raises(TreeError):
            BinaryTree([], [], [])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TreeError):
            BinaryTree(["a"], [NO_NODE], [])

    def test_flat_document_is_right_deep_chain(self):
        tree = UnrankedTree.from_nested(("root", [str(i) for i in range(10)]))
        binary = BinaryTree.from_unranked(tree)
        assert binary.unranked_depth() == 1
        assert binary.binary_depth() == 10

    def test_leaf_and_last_sibling_semantics(self):
        tree = UnrankedTree.from_nested(("r", [("x", ["y"]), "z"]))
        binary = BinaryTree.from_unranked(tree)
        v = {label: i for i, label in enumerate(binary.labels)}
        # "x" has a child in the unranked tree -> not a Leaf.
        assert not binary.is_leaf(v["x"])
        # "x" has a next sibling ("z") -> not a LastSibling.
        assert not binary.is_last_sibling(v["x"])
        assert binary.is_leaf(v["y"]) and binary.is_last_sibling(v["y"])
        assert binary.is_leaf(v["z"]) and binary.is_last_sibling(v["z"])

    def test_subtree_nodes(self):
        tree = UnrankedTree.from_nested(("a", [("b", ["c", "d"]), "e"]))
        binary = BinaryTree.from_unranked(tree)
        v = {label: i for i, label in enumerate(binary.labels)}
        # Binary subtree of "b" includes its unranked subtree and following siblings.
        assert set(binary.subtree_nodes(v["b"])) == {v["b"], v["c"], v["d"], v["e"]}
        assert set(binary.subtree_nodes(v["a"])) == set(range(5))

    def test_parents_are_consistent(self):
        rng = random.Random(3)
        binary = BinaryTree.from_unranked(random_unranked_tree(rng, max_nodes=40))
        parent = binary.parents()
        assert parent[binary.root] == NO_NODE
        for node in range(len(binary)):
            for child in (binary.first_child[node], binary.second_child[node]):
                if child != NO_NODE:
                    assert parent[child] == node

    @given(nested_trees())
    def test_round_trip_unranked_binary_unranked(self, spec):
        tree = UnrankedTree.from_nested(spec)
        binary = BinaryTree.from_unranked(tree)
        binary.validate()
        assert binary.to_unranked().equals(tree)
        assert len(binary) == tree.node_count()

    @given(nested_trees())
    def test_preorder_ids_match_document_order(self, spec):
        tree = UnrankedTree.from_nested(spec)
        binary = BinaryTree.from_unranked(tree)
        assert binary.labels == [node.label for node in tree.iter_nodes()]

    @given(nested_trees())
    def test_a_reverse_id_scan_visits_children_before_parents(self, spec):
        """Phase 1 runs bottom-up by walking ids from the last to the first:
        every binary child must carry a larger id than its parent."""
        binary = BinaryTree.from_unranked(UnrankedTree.from_nested(spec))
        for node in range(len(binary)):
            for child in (binary.first_child[node], binary.second_child[node]):
                assert child == NO_NODE or child > node

    @given(nested_trees())
    def test_unranked_depth_matches(self, spec):
        tree = UnrankedTree.from_nested(spec)
        binary = BinaryTree.from_unranked(tree)
        assert binary.unranked_depth() == tree.depth()
