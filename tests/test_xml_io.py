"""Tests for XML parsing, tree event streams and serialisation."""

from __future__ import annotations

import io
import random

import pytest

from repro.errors import XMLParseError
from repro.tree import (
    BinaryTree,
    events_from_tree,
    parse_xml,
    parse_xml_file,
    serialize_with_selection,
    serialize_xml,
)
from repro.tree.unranked import UnrankedNode, UnrankedTree
from tests.conftest import random_unranked_tree


class TestParsing:
    def test_element_structure(self):
        tree = parse_xml("<a><b/><c><d/></c></a>", text_mode="ignore")
        assert tree.to_nested() == ("a", ["b", ("c", ["d"])])

    def test_text_as_character_nodes(self):
        tree = parse_xml("<a>xy</a>")
        assert [n.label for n in tree.iter_nodes()] == ["a", "x", "y"]

    def test_text_as_single_node(self):
        tree = parse_xml("<a>hello</a>", text_mode="node")
        assert tree.to_nested() == ("a", ["hello"])

    def test_text_ignored(self):
        tree = parse_xml("<a>hello<b/>world</a>", text_mode="ignore")
        assert tree.to_nested() == ("a", ["b"])

    def test_mixed_content_order_preserved(self):
        tree = parse_xml("<a>x<b/>y</a>")
        assert [n.label for n in tree.iter_nodes()] == ["a", "x", "b", "y"]

    def test_attributes_are_ignored(self):
        tree = parse_xml('<a id="1"><b key="v"/></a>', text_mode="ignore")
        assert tree.to_nested() == ("a", ["b"])

    def test_malformed_xml_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a><b></a>")

    def test_invalid_text_mode(self):
        with pytest.raises(ValueError):
            parse_xml("<a/>", text_mode="weird")

    def test_parse_file_object(self):
        handle = io.BytesIO(b"<a><b/></a>")
        tree = parse_xml_file(handle, text_mode="ignore")
        assert tree.to_nested() == ("a", ["b"])

    def test_parse_file_path(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a>hi</a>")
        tree = parse_xml_file(path, text_mode="node")
        assert tree.to_nested() == ("a", ["hi"])

    def test_entities_are_decoded(self):
        tree = parse_xml("<a>&amp;</a>")
        assert [n.label for n in tree.iter_nodes()] == ["a", "&"]


class TestTreeEvents:
    def test_events_are_balanced(self):
        events = list(events_from_tree(parse_xml("<a><b>x</b></a>")))
        starts = [label for kind, label, _ in events if kind == 0]
        ends = [label for kind, label, _ in events if kind == 1]
        assert sorted(starts) == sorted(ends)
        assert starts[0] == "a" and ends[-1] == "a"
        assert {kind for kind, _, _ in events} == {0, 1}

    def test_event_count_is_twice_node_count(self):
        tree = parse_xml("<a><b>xy</b><c/></a>")
        events = list(events_from_tree(tree))
        assert len(events) == 2 * tree.node_count()
        # Character nodes say so; the builder puts them in the text range.
        assert [label for kind, label, is_text in events if kind == 0 and is_text] == ["x", "y"]

    def test_events_nest_in_document_order(self):
        tree = parse_xml("<a><b/><c/></a>", text_mode="ignore")
        assert list(events_from_tree(tree)) == [
            (0, "a", False),
            (0, "b", False),
            (1, "b", False),
            (0, "c", False),
            (1, "c", False),
            (1, "a", False),
        ]


    def test_events_rebuild_the_tree(self):
        """The stream carries everything a build needs: replaying it with a
        stack gives back the tree, character flags included."""
        rng = random.Random(11)
        for _ in range(20):
            tree = random_unranked_tree(rng, max_nodes=40, labels=("a", "b", "x"))
            for node in tree.iter_nodes():
                node.is_text = node.label == "x" and not node.children
            stack: list[UnrankedNode] = [UnrankedNode("#document")]
            for kind, label, is_text in events_from_tree(tree):
                if kind == 0:
                    node = UnrankedNode(label, is_text=is_text)
                    stack[-1].add_child(node)
                    stack.append(node)
                else:
                    assert stack.pop().label == label
            (root,) = stack[0].children
            rebuilt = UnrankedTree(root)
            assert rebuilt.equals(tree)
            assert [node.is_text for node in rebuilt.iter_nodes()] == [
                node.is_text for node in tree.iter_nodes()
            ]


class TestSerialisation:
    def test_round_trip_elements(self):
        document = "<a><b/><c><d/></c></a>"
        tree = parse_xml(document, text_mode="ignore")
        assert serialize_xml(tree, char_nodes_as_text=False) == document

    def test_round_trip_with_text(self):
        document = "<a>hi<b/>yo</a>"
        tree = parse_xml(document)
        assert serialize_xml(tree) == document

    def test_reparse_of_serialisation_is_identity(self):
        document = "<doc><p>some text</p><p>more</p></doc>"
        tree = parse_xml(document)
        again = parse_xml(serialize_xml(tree))
        assert tree.equals(again)

    def test_selected_element_is_marked(self):
        tree = parse_xml("<a><b/><c/></a>", text_mode="ignore")
        # Node ids in document order: a=0, b=1, c=2.
        output = serialize_with_selection(tree, selected={2}, char_nodes_as_text=False)
        assert '<c arb:selected="true"/>' in output
        assert "<b/>" in output and "b arb" not in output

    def test_selected_character_node_is_wrapped(self):
        tree = parse_xml("<a>xy</a>")
        output = serialize_with_selection(tree, selected={1})
        assert output == "<a><arb:selected>x</arb:selected>y</a>"

    def test_escaping(self):
        tree = parse_xml("<a>&lt;&amp;</a>", text_mode="node")
        assert serialize_xml(tree) == "<a>&lt;&amp;</a>"

    def test_selection_ids_match_binary_tree_ids(self):
        document = "<r><a>x</a><b/></r>"
        tree = parse_xml(document)
        binary = BinaryTree.from_unranked(tree)
        b_id = binary.labels.index("b")
        output = serialize_with_selection(tree, selected={b_id})
        assert '<b arb:selected="true"/>' in output
