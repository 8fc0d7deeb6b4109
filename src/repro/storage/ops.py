"""The update operations: their model, their one parser and their meaning.

Relabel a node, delete a subtree, insert a subtree -- addressed by pre-order
node id -- with :func:`op_from_spec`, the one parser behind every serialised
surface, and :func:`apply_to_tree`, the executable specification of what an
operation *means*.  Compiling an operation to a splice of the `.arb` file is
:mod:`repro.storage.structure`'s business, committing a group of them
:mod:`repro.storage.update`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import StorageError
from repro.tree.unranked import UnrankedNode, UnrankedTree
from repro.tree.xml_io import TEXT_MODES, parse_xml

__all__ = [
    "DeleteSubtree",
    "InsertSubtree",
    "Relabel",
    "UpdateOp",
    "apply_to_tree",
    "check_node",
    "materialize_op",
    "op_from_spec",
]


@dataclass(frozen=True)
class Relabel:
    """Give node ``node`` the label ``label`` (structure unchanged).

    ``is_text`` marks the new label as character data, which routes single
    characters to the reserved character index range exactly as at build
    time.
    """

    node: int
    label: str
    is_text: bool = False


@dataclass(frozen=True)
class DeleteSubtree:
    """Delete node ``node`` and its whole (unranked) subtree.

    The document root (node 0) cannot be deleted -- a database is never
    empty.
    """

    node: int


@dataclass(frozen=True)
class InsertSubtree:
    """Insert a new subtree as a child of ``parent``.

    ``source`` is an XML fragment (a string, parsed with ``text_mode``) or
    an :class:`~repro.tree.unranked.UnrankedTree`.  ``position`` is the
    child index the new subtree lands at (``None`` appends after the last
    existing child).
    """

    parent: int
    source: "str | UnrankedTree"
    position: int | None = None
    text_mode: str = "chars"


UpdateOp = Relabel | DeleteSubtree | InsertSubtree


def _spec_field(spec: dict, name: str, kind: type, default=None):
    """Field ``name`` of an update spec, required unless ``default`` is given.

    Typed strictly -- ``int(1.7)`` would silently address node 1 and
    ``str(None)`` write the label ``"None"``; a bool is not a node id.
    Decimal-digit strings are accepted where an integer is expected.
    """
    value = spec[name] if default is None else spec.get(name, default)
    if kind is int and isinstance(value, str) and value.isdecimal():
        return int(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = {int: "an integer", str: "a string", bool: "true or false"}[kind]
        raise StorageError(f"update spec field {name!r} must be {expected}, got {value!r}")
    return value


def op_from_spec(spec: dict) -> "UpdateOp":
    """Build an update operation from a plain-dictionary description.

    This is the one parser behind every serialised op surface -- the
    ``arb update --group`` JSONL file and the server's ``{"op": "update"}``
    messages -- so they cannot drift apart::

        {"kind": "relabel", "node": 3, "label": "x", "text": false}
        {"kind": "delete", "node": 5}
        {"kind": "insert", "parent": 0, "xml": "<y/>", "at": 1,
         "text_mode": "chars"}
    """
    if not isinstance(spec, dict):
        raise StorageError(f"an update spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "relabel":
            return Relabel(
                _spec_field(spec, "node", int),
                _spec_field(spec, "label", str),
                is_text=_spec_field(spec, "text", bool, False),
            )
        if kind == "delete":
            return DeleteSubtree(_spec_field(spec, "node", int))
        if kind == "insert":
            text_mode = spec.get("text_mode", "chars")
            if text_mode not in TEXT_MODES:
                raise StorageError(
                    f"update spec field 'text_mode' must be one of {TEXT_MODES}, got {text_mode!r}"
                )
            return InsertSubtree(
                _spec_field(spec, "parent", int),
                _spec_field(spec, "xml", str),
                position=None if spec.get("at") is None else _spec_field(spec, "at", int),
                text_mode=text_mode,
            )
    except KeyError as missing:
        raise StorageError(f"update spec {kind!r} is missing field {missing}") from None
    raise StorageError(f"unknown update kind {kind!r} (expected relabel, delete or insert)")


def check_node(n_nodes: int, node: int, role: str) -> None:
    """Refuse a node id outside ``[0, n_nodes)`` -- one message for the
    splice path and its tree oracle."""
    if not 0 <= node < n_nodes:
        raise StorageError(f"{role} {node} out of range (database has {n_nodes} nodes)")


def materialize_op(op: UpdateOp) -> UpdateOp:
    """Pin an insert's XML parse before it is logged or compiled.

    The WAL stores structural trees, never source text, so parsing must
    happen exactly once -- here, with the operation's own ``text_mode`` --
    and both the live apply and any crash replay encode the same nodes.
    """
    if isinstance(op, InsertSubtree) and not isinstance(op.source, UnrankedTree):
        return replace(op, source=parse_xml(op.source, text_mode=op.text_mode))
    return op


# ---------------------------------------------------------------------- #
# Pure-tree mirror (reference semantics for tests and docs)
# ---------------------------------------------------------------------- #


def apply_to_tree(tree: UnrankedTree, update: UpdateOp) -> UnrankedTree:
    """What ``update`` does, expressed on an in-memory unranked tree.

    Returns a fresh tree (the input is never mutated).  This is the
    executable specification the property suite holds the splice path to:
    ``apply_update`` on disk must equal rebuild-from-scratch of
    ``apply_to_tree``'s result.
    """
    copy = _copy_tree(tree)
    nodes = list(copy.iter_nodes())  # pre-order: ids line up with .arb ids
    parents = {id(child): node for node in nodes for child in node.children}
    if isinstance(update, Relabel):
        check_node(len(nodes), update.node, "relabel target")
        target = nodes[update.node]
        target.label = update.label
        target.is_text = update.is_text
        return copy
    if isinstance(update, DeleteSubtree):
        check_node(len(nodes), update.node, "delete target")
        if update.node == 0:
            raise StorageError("cannot delete the document root (node 0)")
        target = nodes[update.node]
        parents[id(target)].children.remove(target)
        return copy
    if isinstance(update, InsertSubtree):
        check_node(len(nodes), update.parent, "insert parent")
        subtree = _copy_tree(materialize_op(update).source)
        parent = nodes[update.parent]
        position = len(parent.children) if update.position is None else update.position
        if not 0 <= position <= len(parent.children):
            raise StorageError(
                f"insert position {position} out of range "
                f"(parent {update.parent} has {len(parent.children)} children)"
            )
        parent.children.insert(position, subtree.root)
        return copy
    raise StorageError(f"unknown update operation: {update!r}")


def _copy_tree(tree: UnrankedTree) -> UnrankedTree:
    root_copy = UnrankedNode(tree.root.label, is_text=tree.root.is_text)
    stack = [(tree.root, root_copy)]
    while stack:
        original, mirror = stack.pop()
        for child in original.children:
            child_copy = UnrankedNode(child.label, is_text=child.is_text)
            mirror.children.append(child_copy)
            stack.append((child, child_copy))
    return UnrankedTree(root_copy)
