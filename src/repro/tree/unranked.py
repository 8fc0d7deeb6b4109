"""Unranked ordered labelled trees.

This is the "user visible" tree model: an XML document is an ordered tree
whose nodes carry a label (an element tag name, or a single text character
when text is modelled as character nodes, as in the paper).  The query
engine itself works on the binary first-child/next-sibling encoding provided
by :mod:`repro.tree.binary`; the unranked model exists for document
construction, XPath baseline evaluation and serialisation.

All traversals are iterative; XML trees produced from flat documents can be
arbitrarily deep in the binary encoding but the unranked tree can also be
deep (e.g. deeply nested elements), so nothing here recurses.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.errors import TreeError

__all__ = ["BEGIN", "END", "UnrankedNode", "UnrankedTree", "events_from_tree"]


class UnrankedNode:
    """A node of an unranked ordered tree.

    Attributes
    ----------
    label:
        The node label.  Element nodes use their tag name, character nodes
        use the single character they represent.
    children:
        The ordered list of child nodes.
    is_text:
        True for character / text-run nodes.  The query engine does not care
        (a label is a label), but the XML serialiser uses this to decide
        whether to re-assemble the node into character data or emit an
        element tag.
    """

    __slots__ = ("label", "children", "is_text")

    def __init__(
        self,
        label: str,
        children: Iterable["UnrankedNode"] | None = None,
        is_text: bool = False,
    ):
        self.label = label
        self.children: list[UnrankedNode] = list(children) if children is not None else []
        self.is_text = is_text

    def add_child(self, child: "UnrankedNode") -> "UnrankedNode":
        """Append ``child`` and return it (useful for fluent construction)."""
        self.children.append(child)
        return child

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnrankedNode({self.label!r}, {len(self.children)} children)"


class UnrankedTree:
    """An unranked ordered labelled tree with a distinguished root."""

    __slots__ = ("root",)

    def __init__(self, root: UnrankedNode):
        if root is None:
            raise TreeError("an unranked tree requires a root node")
        self.root = root

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_nested(cls, spec) -> "UnrankedTree":
        """Build a tree from a nested ``(label, [children...])`` structure.

        A bare string is shorthand for a leaf.  Example::

            UnrankedTree.from_nested(("a", ["b", ("c", ["d"])]))
        """
        root = _node_from_nested(spec)
        return cls(root)

    def to_nested(self):
        """Inverse of :meth:`from_nested` (leaves become bare strings)."""
        out: dict[int, object] = {}
        for node, children_done in _postorder_with_children(self.root):
            if not node.children:
                out[id(node)] = node.label
            else:
                out[id(node)] = (node.label, [out[id(c)] for c in node.children])
        return out[id(self.root)]

    # ------------------------------------------------------------------ #
    # Traversal / statistics
    # ------------------------------------------------------------------ #

    def iter_nodes(self) -> Iterator[UnrankedNode]:
        """Yield all nodes in document (pre-) order, iteratively."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Push children reversed so that the leftmost child is visited next.
            stack.extend(reversed(node.children))

    def iter_with_depth(self) -> Iterator[tuple[UnrankedNode, int]]:
        """Yield ``(node, depth)`` pairs in document order; the root has depth 0."""
        stack: list[tuple[UnrankedNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((child, depth + 1) for child in reversed(node.children))

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Maximum depth of any node (root = 0)."""
        return max(depth for _, depth in self.iter_with_depth())

    def count_labels(self, predicate: Callable[[str], bool] | None = None) -> int:
        """Count nodes, optionally only those whose label satisfies ``predicate``."""
        if predicate is None:
            return self.node_count()
        return sum(1 for node in self.iter_nodes() if predicate(node.label))

    def labels(self) -> set[str]:
        """The set of distinct labels occurring in the tree."""
        return {node.label for node in self.iter_nodes()}

    # ------------------------------------------------------------------ #
    # Structural equality (used heavily by round-trip tests)
    # ------------------------------------------------------------------ #

    def equals(self, other: "UnrankedTree") -> bool:
        """Structural equality: same shape and same labels everywhere."""
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnrankedTree({self.node_count()} nodes)"


#: The ``kind`` of an event of :func:`events_from_tree`: a node begins / ends.
BEGIN = 0
END = 1


def events_from_tree(tree: UnrankedTree) -> Iterator[tuple[int, str, bool]]:
    """Yield ``(kind, label, is_text)`` events for every node of ``tree``.

    ``kind`` is :data:`BEGIN` when a node begins (on the way down) and
    :data:`END` when it ends (on the way back up), so a tree of ``n`` nodes yields ``2 n`` events in
    document order.  This is the event stream a `.arb` build consumes
    (:mod:`repro.storage.build`) and the streaming baseline runs over.
    """
    stack: list[tuple[UnrankedNode, bool]] = [(tree.root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            yield END, node.label, node.is_text
            continue
        yield BEGIN, node.label, node.is_text
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def _node_from_nested(spec) -> UnrankedNode:
    """Iteratively build an :class:`UnrankedNode` from a nested spec."""
    if isinstance(spec, str):
        return UnrankedNode(spec)
    if not (isinstance(spec, tuple) and len(spec) == 2):
        raise TreeError(f"invalid nested tree spec: {spec!r}")
    label, child_specs = spec
    root = UnrankedNode(label)
    # Work list of (parent_node, child_spec) pairs, processed left-to-right.
    work: list[tuple[UnrankedNode, object]] = [(root, c) for c in child_specs]
    index = 0
    while index < len(work):
        parent, child_spec = work[index]
        index += 1
        if isinstance(child_spec, str):
            parent.add_child(UnrankedNode(child_spec))
            continue
        if not (isinstance(child_spec, tuple) and len(child_spec) == 2):
            raise TreeError(f"invalid nested tree spec: {child_spec!r}")
        child_label, grandchild_specs = child_spec
        child = parent.add_child(UnrankedNode(child_label))
        work.extend((child, g) for g in grandchild_specs)
    return root


def _postorder_with_children(root: UnrankedNode):
    """Yield ``(node, True)`` in post-order without recursion."""
    stack: list[tuple[UnrankedNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node, True
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))
