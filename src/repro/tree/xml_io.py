"""XML parsing and serialisation.

The paper models an XML document as an ordered labelled tree in which text is
included "as one node for each character" (Section 1.3 / 2.1).  This module
converts between XML strings/files and :class:`~repro.tree.unranked.UnrankedTree`
instances under three text models:

``"chars"`` (default, as in the paper)
    every text character becomes a leaf node labelled with that character;
``"node"``
    every maximal text run becomes a single leaf node labelled with the text;
``"ignore"``
    text is dropped entirely (element structure only).

Attributes and comments are ignored, matching the datasets used in the paper
("our source XML documents contain no other kinds of nodes").

The begin/end event stream of a parsed tree, which the `.arb` builder and the
streaming baseline consume, is :func:`repro.tree.unranked.events_from_tree`.
"""

from __future__ import annotations

import io
import xml.parsers.expat
from typing import Iterable, TextIO

from repro.errors import XMLParseError
from repro.tree.unranked import UnrankedNode, UnrankedTree

__all__ = [
    "TEXT_MODES",
    "parse_xml",
    "parse_xml_file",
    "serialize_xml",
    "serialize_with_selection",
]

TEXT_MODES = ("chars", "node", "ignore")


def _check_text_mode(text_mode: str) -> None:
    if text_mode not in TEXT_MODES:
        raise ValueError(f"text_mode must be one of {TEXT_MODES}, got {text_mode!r}")


class _TreeBuilder:
    """Expat handler that builds an :class:`UnrankedTree`."""

    def __init__(self, text_mode: str):
        self.text_mode = text_mode
        self.root: UnrankedNode | None = None
        self.stack: list[UnrankedNode] = []
        self._last_was_text = False

    def start_element(self, name: str, attrs) -> None:
        node = UnrankedNode(name)
        if self.stack:
            self.stack[-1].children.append(node)
        elif self.root is None:
            self.root = node
        else:
            raise XMLParseError("document has more than one root element")
        self.stack.append(node)
        self._last_was_text = False

    def end_element(self, name: str) -> None:
        self.stack.pop()
        self._last_was_text = False

    def character_data(self, data: str) -> None:
        if self.text_mode == "ignore" or not self.stack:
            return
        parent = self.stack[-1]
        if self.text_mode == "chars":
            parent.children.extend(UnrankedNode(ch, is_text=True) for ch in data)
        else:  # "node"
            # Expat may split a long text run into several callbacks; merge
            # consecutive runs so each maximal text block stays one node.
            if self._last_was_text and parent.children:
                parent.children[-1].label += data
            else:
                parent.children.append(UnrankedNode(data, is_text=True))
        self._last_was_text = True


def parse_xml(document: str, text_mode: str = "chars") -> UnrankedTree:
    """Parse an XML string into an unranked tree."""
    _check_text_mode(text_mode)
    return _parse(document.encode("utf-8"), text_mode)


def parse_xml_file(path_or_file, text_mode: str = "chars") -> UnrankedTree:
    """Parse an XML file (path or binary file object) into an unranked tree."""
    _check_text_mode(text_mode)
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
        return _parse(data, text_mode)
    with open(path_or_file, "rb") as handle:
        return _parse(handle.read(), text_mode)


def _parse(data: bytes, text_mode: str) -> UnrankedTree:
    builder = _TreeBuilder(text_mode)
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XMLParseError(f"malformed XML: {exc}") from exc
    if builder.root is None:
        raise XMLParseError("document contains no element")
    return UnrankedTree(builder.root)


# --------------------------------------------------------------------------- #
# Serialisation
# --------------------------------------------------------------------------- #

_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def _escape(text: str) -> str:
    for raw, escaped in _XML_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def serialize_xml(tree: UnrankedTree, *, char_nodes_as_text: bool = True) -> str:
    """Serialise an unranked tree back to XML.

    Leaf nodes with single-character labels are treated as character nodes
    and re-assembled into text runs when ``char_nodes_as_text`` is true;
    otherwise every node becomes an element.
    """
    return serialize_with_selection(tree, selected=frozenset(), char_nodes_as_text=char_nodes_as_text)


def serialize_with_selection(
    tree: UnrankedTree,
    selected: Iterable[int] = frozenset(),
    *,
    char_nodes_as_text: bool = True,
    selected_attribute: str = "arb:selected",
) -> str:
    """Serialise ``tree`` marking selected nodes "in the usual XML fashion".

    ``selected`` contains node ids in *document order* (the pre-order index of
    the node, matching :class:`~repro.tree.binary.BinaryTree` ids).  Selected
    element nodes receive a ``arb:selected="true"`` attribute; selected
    character nodes are wrapped in an ``<arb:selected>`` element.
    """
    selected_set = set(selected)
    out = io.StringIO()
    _write_node(out, tree, selected_set, char_nodes_as_text, selected_attribute)
    return out.getvalue()


def _write_node(
    out: TextIO,
    tree: UnrankedTree,
    selected: set[int],
    char_nodes_as_text: bool,
    selected_attribute: str,
) -> None:
    # Document-order ids are assigned on the fly during an iterative pre-order
    # walk, mirroring BinaryTree.from_unranked.
    counter = 0
    stack: list[tuple[UnrankedNode, bool]] = [(tree.root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            out.write(f"</{node.label}>")
            continue
        node_id = counter
        counter += 1
        is_selected = node_id in selected
        if char_nodes_as_text and _text_leaf(node):
            text = _escape(node.label)
            if is_selected:
                out.write(f"<arb:selected>{text}</arb:selected>")
            else:
                out.write(text)
            continue
        attributes = f' {selected_attribute}="true"' if is_selected else ""
        if not node.children:
            out.write(f"<{node.label}{attributes}/>")
            continue
        out.write(f"<{node.label}{attributes}>")
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def _text_leaf(node: UnrankedNode) -> bool:
    """Whether the node is a character / text-run node (set by the parser)."""
    return node.is_text and not node.children
