"""Binary (first-child / next-sibling) trees.

The query engine operates on binary trees, as in Section 2.1 of the paper:
the first child of an unranked node becomes the *first* (left) child in the
binary tree, and the right neighbouring sibling becomes the *second* (right)
child.  Character and element nodes are not distinguished structurally; a
character node is simply a node whose label is a single character.

The representation is an arena: node identifiers are integers ``0..n-1`` in
**pre-order** (the root is node 0), and the structure is held in three
parallel lists (``labels``, ``first_child``, ``second_child``).  Pre-order
node numbering mirrors the on-disk `.arb` layout (Section 5), which makes the
in-memory engine, the disk engine and the storage tests agree on node ids.
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.tree.unranked import UnrankedNode, UnrankedTree

__all__ = ["BinaryTree", "NO_NODE"]

#: Sentinel used in ``first_child`` / ``second_child`` for "no such child".
NO_NODE = -1


class BinaryTree:
    """An arena-allocated binary tree with pre-order node identifiers."""

    __slots__ = ("labels", "first_child", "second_child")

    def __init__(self, labels: list[str], first_child: list[int], second_child: list[int]):
        if not (len(labels) == len(first_child) == len(second_child)):
            raise TreeError("labels/first_child/second_child must have equal length")
        if not labels:
            raise TreeError("a binary tree must have at least one node")
        self.labels = labels
        self.first_child = first_child
        self.second_child = second_child

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.labels)

    def n_nodes(self) -> int:
        return len(self.labels)

    def label(self, node: int) -> str:
        return self.labels[node]

    def has_first_child(self, node: int) -> bool:
        return self.first_child[node] != NO_NODE

    def has_second_child(self, node: int) -> bool:
        return self.second_child[node] != NO_NODE

    def is_leaf(self, node: int) -> bool:
        """Leaf in the *binary* sense (and, equivalently for the encoding,
        "no children in the unranked tree")."""
        return self.first_child[node] == NO_NODE

    def is_last_sibling(self, node: int) -> bool:
        return self.second_child[node] == NO_NODE

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_unranked(cls, tree: UnrankedTree) -> "BinaryTree":
        """Encode an unranked tree using the first-child/next-sibling scheme.

        Node ids are assigned in pre-order of the *binary* tree, which for
        this encoding coincides with document order of the unranked tree.
        """
        labels: list[str] = []
        first_child: list[int] = []
        second_child: list[int] = []

        # Each stack entry describes a node that must be emitted next:
        # (unranked_node, remaining_right_siblings, attach_slot, attach_which)
        # where attach_which is 0 (first child) or 1 (second child) and
        # attach_slot is NO_NODE for the root.
        stack: list[tuple[UnrankedNode, list[UnrankedNode], int, int]] = [
            (tree.root, [], NO_NODE, 0)
        ]
        while stack:
            unode, right_siblings, attach_slot, attach_which = stack.pop()
            slot = len(labels)
            labels.append(unode.label)
            first_child.append(NO_NODE)
            second_child.append(NO_NODE)
            if attach_slot != NO_NODE:
                if attach_which == 0:
                    first_child[attach_slot] = slot
                else:
                    second_child[attach_slot] = slot
            # The node's *second* (binary) child is its next unranked sibling;
            # it must be emitted after this node's entire first-child subtree,
            # i.e. pushed onto the stack *before* the first child.
            if right_siblings:
                next_sibling = right_siblings[0]
                stack.append((next_sibling, right_siblings[1:], slot, 1))
            if unode.children:
                first = unode.children[0]
                stack.append((first, unode.children[1:], slot, 0))
        return cls(labels, first_child, second_child)

    def to_unranked(self) -> UnrankedTree:
        """Decode back to an unranked tree (inverse of :meth:`from_unranked`)."""
        # In the encoding, the unranked children of a node v are: the
        # first (binary) child of v, followed by the chain of second children.
        nodes = [UnrankedNode(self.labels[i]) for i in range(len(self.labels))]
        # Establish unranked parentship iteratively over all binary nodes.
        for v in range(len(self.labels)):
            child = self.first_child[v]
            while child != NO_NODE:
                nodes[v].children.append(nodes[child])
                child = self.second_child[child]
        return UnrankedTree(nodes[self.root])

    # ------------------------------------------------------------------ #
    # Traversals (all iterative; trees may be millions of nodes deep in the
    # binary sense, e.g. a flat document is one long second-child chain).
    # ------------------------------------------------------------------ #

    def parents(self) -> list[int]:
        """Return the binary-parent of every node (``NO_NODE`` for the root)."""
        parent = [NO_NODE] * len(self.labels)
        for v in range(len(self.labels)):
            for child in (self.first_child[v], self.second_child[v]):
                if child != NO_NODE:
                    parent[child] = v
        return parent

    def binary_depth(self) -> int:
        """Depth of the binary tree (root = 0)."""
        parent = self.parents()
        depth = [0] * len(self.labels)
        best = 0
        # Node ids are in pre-order, so parents precede children.
        for v in range(1, len(self.labels)):
            depth[v] = depth[parent[v]] + 1
            if depth[v] > best:
                best = depth[v]
        return best

    def unranked_depth(self) -> int:
        """Depth of the corresponding unranked tree (root = 0).

        In the encoding, moving to a first child increases unranked depth by
        one while moving to a second child keeps it constant.
        """
        parent = self.parents()
        depth = [0] * len(self.labels)
        best = 0
        for v in range(1, len(self.labels)):
            p = parent[v]
            depth[v] = depth[p] + (1 if self.first_child[p] == v else 0)
            if depth[v] > best:
                best = depth[v]
        return best

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes of the binary subtree rooted at ``node`` (pre-order)."""
        result: list[int] = []
        stack = [node]
        while stack:
            v = stack.pop()
            result.append(v)
            second = self.second_child[v]
            if second != NO_NODE:
                stack.append(second)
            first = self.first_child[v]
            if first != NO_NODE:
                stack.append(first)
        return result

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TreeError` on failure.

        Invariants: every node except the root has exactly one parent, ids
        are a single tree (connected, acyclic), and pre-order numbering holds
        (a node's id is smaller than all ids in its subtree, and the first
        child of ``v`` -- when present -- is ``v + 1``).
        """
        n = len(self.labels)
        seen_as_child = [0] * n
        for v in range(n):
            for which, child in (("first", self.first_child[v]), ("second", self.second_child[v])):
                if child == NO_NODE:
                    continue
                if not 0 <= child < n:
                    raise TreeError(f"node {v}: {which} child {child} out of range")
                if child <= v:
                    raise TreeError(f"node {v}: {which} child {child} violates pre-order")
                seen_as_child[child] += 1
            if self.first_child[v] != NO_NODE and self.first_child[v] != v + 1:
                raise TreeError(f"node {v}: first child must be v+1 in pre-order layout")
        if seen_as_child[0] != 0:
            raise TreeError("root must not be a child")
        for v in range(1, n):
            if seen_as_child[v] != 1:
                raise TreeError(f"node {v} has {seen_as_child[v]} parents")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryTree({len(self.labels)} nodes)"
