"""Tests for the XPath frontend: parser, translation, agreement with the
naive navigational evaluator and the streaming engine."""

from __future__ import annotations

import random

import pytest

from repro.core.two_phase import TwoPhaseEvaluator
from repro.errors import XPathSyntaxError, XPathUnsupportedError
from repro.streaming import StreamingEngine, StreamPathQuery, stream_select
from repro.tree import BinaryTree, parse_xml
from repro.xpath import parse_xpath, xpath_to_program
from repro.xpath.ast import PathCondition
from tests.conftest import random_unranked_tree
from tests.oracles import NaiveXPathEvaluator, evaluate_xpath_naive

LIBRARY = (
    "<library>"
    "<shelf><book><title>a</title><author>x</author></book>"
    "<book><title>b</title></book></shelf>"
    "<shelf><dvd><title>c</title></dvd><book><note/></book></shelf>"
    "</library>"
)


def run_arb(document_or_tree, expression: str) -> list[int]:
    tree = (
        document_or_tree
        if isinstance(document_or_tree, BinaryTree)
        else BinaryTree.from_unranked(parse_xml(document_or_tree, text_mode="ignore"))
    )
    program = xpath_to_program(expression)
    return TwoPhaseEvaluator(program).evaluate(tree).selected["QUERY"]


def run_naive(document_or_tree, expression: str) -> list[int]:
    tree = (
        document_or_tree
        if isinstance(document_or_tree, BinaryTree)
        else BinaryTree.from_unranked(parse_xml(document_or_tree, text_mode="ignore"))
    )
    return evaluate_xpath_naive(tree, expression)


class TestParser:
    def test_absolute_and_abbreviated_syntax(self):
        path = parse_xpath("/library//book/title")
        assert path.absolute
        # '//' folds into the following child step as a descendant step.
        assert [s.axis for s in path.steps] == ["child", "descendant", "child"]
        assert [s.test for s in path.steps] == ["library", "book", "title"]

    def test_explicit_axes(self):
        path = parse_xpath("ancestor::shelf/following-sibling::*")
        assert [s.axis for s in path.steps] == ["ancestor", "following-sibling"]
        assert path.steps[1].test == "*"

    def test_predicates_parse(self):
        path = parse_xpath("//book[title and author]")
        assert len(path.steps[-1].predicates) == 1

    def test_dot_and_dotdot(self):
        path = parse_xpath("../.")
        assert [s.axis for s in path.steps] == ["parent", "self"]

    def test_nested_predicates(self):
        path = parse_xpath("//shelf[book[note]]")
        predicate = path.steps[-1].predicates[0]
        assert isinstance(predicate, PathCondition)

    def test_errors(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("")
        with pytest.raises(XPathSyntaxError):
            parse_xpath("//book[")
        with pytest.raises(XPathUnsupportedError):
            parse_xpath("//book[@id]")
        with pytest.raises(XPathUnsupportedError):
            parse_xpath("//book[not(title)]")
        with pytest.raises(XPathUnsupportedError):
            parse_xpath("//book[count(title)]")


class TestTranslationAgainstNaive:
    EXPRESSIONS = [
        "/library",
        "/library/shelf/book",
        "//book",
        "//book/title",
        "//shelf//title",
        "//book[title]",
        "//book[title and author]",
        "//book[title or note]",
        "//shelf[book[note]]",
        "//title[parent::book]",
        "//*[ancestor::shelf]",
        "//book/following-sibling::*",
        "//book/preceding-sibling::book",
        "//title[ancestor-or-self::dvd]",
        "//note/ancestor::shelf",
        "shelf/book",
        "descendant::title",
        "//book[descendant::note or title]",
        "//*[self::dvd]",
        "//title[following::note]",
        "//note[preceding::title]",
    ]

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_fixed_document(self, expression):
        assert run_arb(LIBRARY, expression) == run_naive(LIBRARY, expression)

    def test_random_trees(self):
        rng = random.Random(11)
        expressions = ["//a", "//a/b", "//a[b]", "//b[ancestor::a]", "//a//c",
                       "//a/following-sibling::b", "//c[parent::a or parent::b]"]
        for _ in range(10):
            tree = BinaryTree.from_unranked(random_unranked_tree(rng, max_nodes=40))
            for expression in expressions:
                assert run_arb(tree, expression) == run_naive(tree, expression), expression

    def test_absolute_condition(self):
        # The condition /library/shelf/dvd holds for the document, so every
        # book qualifies.
        expression = "//book[/library/shelf/dvd]"
        assert run_arb(LIBRARY, expression) == run_naive(LIBRARY, expression)
        assert len(run_arb(LIBRARY, expression)) == 3

    def test_program_size_is_linear(self):
        small = xpath_to_program("//a/b")
        large = xpath_to_program("//a/b/c/d/e/f/g/h")
        # Six additional child steps; each contributes a bounded number of rules.
        extra_steps = 6
        per_step = (large.n_rules - small.n_rules) / extra_steps
        assert per_step <= 10


class TestNaiveEvaluator:
    def test_axes_document_semantics(self):
        tree = BinaryTree.from_unranked(parse_xml(LIBRARY, text_mode="ignore"))
        evaluator = NaiveXPathEvaluator(tree)
        shelf = tree.labels.index("shelf")
        assert all(tree.labels[c] in ("book", "dvd") for c in evaluator.axis(shelf, "child"))
        assert evaluator.axis(tree.root, "parent") == []
        title = tree.labels.index("title")
        assert tree.labels[evaluator.axis(title, "parent")[0]] == "book"

    def test_following_and_preceding_are_disjoint(self):
        tree = BinaryTree.from_unranked(parse_xml(LIBRARY, text_mode="ignore"))
        evaluator = NaiveXPathEvaluator(tree)
        for node in range(len(tree)):
            following = set(evaluator.axis(node, "following"))
            preceding = set(evaluator.axis(node, "preceding"))
            ancestors = set(evaluator.axis(node, "ancestor-or-self"))
            descendants = set(evaluator.axis(node, "descendant-or-self"))
            assert not (following & preceding)
            assert not (following & descendants)
            assert not (preceding & ancestors)


class TestStreaming:
    def test_matches_naive_on_downward_queries(self):
        for expression in ("//book", "/library/shelf/book", "//shelf//title", "//book/title"):
            expected = run_naive(LIBRARY, expression)
            tree = parse_xml(LIBRARY, text_mode="ignore")
            assert stream_select(tree, expression) == expected

    def test_single_pass_and_bounded_stack(self):
        tree = parse_xml(LIBRARY, text_mode="ignore")
        engine = StreamingEngine("//title")
        selected = engine.select_from_tree(tree)
        assert len(selected) == 3
        assert engine.max_stack_depth <= tree.depth() + 2

    def test_lazy_dfa_is_memoised(self):
        tree = parse_xml("<r>" + "<a><b/></a>" * 50 + "</r>", text_mode="ignore")
        engine = StreamingEngine("//a/b")
        engine.select_from_tree(tree)
        assert engine.dfa_transitions_computed < 10

    def test_rejects_unsupported_queries(self):
        with pytest.raises(XPathUnsupportedError):
            StreamPathQuery("//book[title]")
        with pytest.raises(XPathUnsupportedError):
            StreamPathQuery("//title/parent::book")
        with pytest.raises(XPathUnsupportedError):
            StreamPathQuery("book/title")  # relative: no anchor on a stream

    def test_streaming_agrees_with_arb_on_random_trees(self):
        rng = random.Random(23)
        for _ in range(10):
            unranked = random_unranked_tree(rng, max_nodes=50)
            tree = BinaryTree.from_unranked(unranked)
            for expression in ("//a", "//a//b", "/a/b/c"):
                assert stream_select(unranked, expression) == run_arb(tree, expression)
