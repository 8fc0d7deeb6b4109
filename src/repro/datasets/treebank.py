"""Synthetic Penn-Treebank-like parse trees.

The real Penn Treebank is a licensed corpus, so the benchmarks use a
generator that reproduces the structural properties the paper's queries
exercise: deeply nested phrase structure over the tag alphabet
``{S, NP, VP, PP, ...}`` with word text at the leaves (stored as character
nodes).  The random regular path queries of Section 6.2 only mention the
tags ``S``, ``NP``, ``VP`` and ``PP`` and navigate with
``FirstChild.NextSibling*`` (i.e. "some child"), so what matters is the
recursive nesting of those categories and a realistic fan-out -- both of
which the simple probabilistic grammar below provides.
"""

from __future__ import annotations

import random

from repro.tree.unranked import UnrankedNode, UnrankedTree

__all__ = ["generate_treebank", "generate_sentence", "TAGS"]

#: Phrase tags used by the generator (the first four are the query alphabet).
TAGS = ("S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP")

_WORDS = (
    "stocks", "fell", "sharply", "the", "trader", "said", "in", "london",
    "prices", "rose", "on", "news", "of", "a", "merger", "analysts",
    "expect", "growth", "to", "slow", "next", "year",
)

# Production rules: tag -> possible child-category sequences.
_GRAMMAR: dict[str, tuple[tuple[str, ...], ...]] = {
    "S": (("NP", "VP"), ("NP", "VP", "PP"), ("S", "SBAR"), ("NP", "VP", "ADVP")),
    "NP": (("word",), ("word", "word"), ("NP", "PP"), ("ADJP", "word"), ("word", "PP")),
    "VP": (("word", "NP"), ("word",), ("VP", "PP"), ("word", "S"), ("word", "NP", "PP")),
    "PP": (("word", "NP"),),
    "SBAR": (("word", "S"),),
    "ADJP": (("word",), ("word", "word")),
    "ADVP": (("word",),),
}


def generate_sentence(rng: random.Random, max_depth: int = 8) -> UnrankedNode:
    """One random sentence tree rooted at an ``S`` node."""
    root = UnrankedNode("S")
    stack: list[tuple[UnrankedNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        productions = _GRAMMAR[node.label]
        if depth >= max_depth:
            # Force lexical expansion near the depth bound.
            production: tuple[str, ...] = ("word",)
        else:
            production = rng.choice(productions)
        for category in production:
            if category == "word":
                word = rng.choice(_WORDS)
                word_node = node.add_child(UnrankedNode("W"))
                word_node.children = [UnrankedNode(ch, is_text=True) for ch in word]
            else:
                child = node.add_child(UnrankedNode(category))
                stack.append((child, depth + 1))
    return root


def generate_treebank(
    target_nodes: int = 50_000,
    seed: int = 1986,
    max_depth: int = 8,
) -> UnrankedTree:
    """A corpus of random sentences totalling roughly ``target_nodes`` nodes.

    The exact count overshoots the target by at most one sentence.  Both
    element nodes (phrase tags, ``W`` word wrappers) and character nodes
    contribute to the total, mirroring the composition of the real corpus
    (the paper's Treebank database has roughly 12 character nodes per
    element node).
    """
    rng = random.Random(seed)
    corpus = UnrankedNode("corpus")
    total = 1
    while total < target_nodes:
        sentence = generate_sentence(rng, max_depth=max_depth)
        corpus.children.append(sentence)
        total += _count_nodes(sentence)
    return UnrankedTree(corpus)


def _count_nodes(node: UnrankedNode) -> int:
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1
        stack.extend(current.children)
    return count
