"""Tree substrate: unranked trees, binary encodings, XML I/O, EDB schema."""

from repro.tree.binary import NO_NODE, BinaryTree
from repro.tree.model import NodeSchema, label_predicate, negate, normalize_binary, normalize_unary
from repro.tree.unranked import UnrankedNode, UnrankedTree, events_from_tree
from repro.tree.xml_io import parse_xml, parse_xml_file, serialize_with_selection, serialize_xml

__all__ = [
    "BinaryTree",
    "NO_NODE",
    "NodeSchema",
    "UnrankedNode",
    "UnrankedTree",
    "events_from_tree",
    "label_predicate",
    "negate",
    "normalize_binary",
    "normalize_unary",
    "parse_xml",
    "parse_xml_file",
    "serialize_xml",
    "serialize_with_selection",
]
