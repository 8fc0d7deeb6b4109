"""Synthetic SwissProt-like protein database.

SwissProt is only used in the paper's Figure 5 (database creation
statistics); the relevant structural properties are: a very large number of
record-oriented entries, shallow nesting, few distinct tags and a heavy
dominance of character data (~27 character nodes per element node).  The
generator below reproduces that shape at a configurable scale.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.tree.unranked import UnrankedNode, UnrankedTree, events_from_tree

__all__ = ["generate_swissprot", "generate_swissprot_events"]

_AMINO = "ACDEFGHIKLMNPQRSTVWY"
_ORGANISMS = ("Homo sapiens", "Mus musculus", "Escherichia coli", "Saccharomyces cerevisiae")
_KEYWORDS = ("kinase", "membrane", "transport", "binding", "repeat", "signal")


def _entry(rng: random.Random, index: int) -> UnrankedNode:
    entry = UnrankedNode("Entry")
    accession = entry.add_child(UnrankedNode("AC"))
    accession.children = [UnrankedNode(ch, is_text=True) for ch in f"P{index:05d}"]
    name = entry.add_child(UnrankedNode("Name"))
    name.children = [
        UnrankedNode(ch, is_text=True) for ch in f"PROT{index}_{rng.choice(_KEYWORDS).upper()}"
    ]
    organism = entry.add_child(UnrankedNode("Organism"))
    organism.children = [UnrankedNode(ch, is_text=True) for ch in rng.choice(_ORGANISMS)]
    features = entry.add_child(UnrankedNode("Features"))
    for _ in range(rng.randint(1, 4)):
        feature = features.add_child(UnrankedNode("Feature"))
        feature.children = [UnrankedNode(ch, is_text=True) for ch in rng.choice(_KEYWORDS)]
    sequence = entry.add_child(UnrankedNode("Sequence"))
    length = rng.randint(80, 240)
    sequence.children = [
        UnrankedNode(rng.choice(_AMINO), is_text=True) for _ in range(length)
    ]
    return entry


def generate_swissprot(n_entries: int = 500, seed: int = 7) -> UnrankedTree:
    """A protein database with ``n_entries`` record-style entries."""
    rng = random.Random(seed)
    root = UnrankedNode("sptr")
    root.children = [_entry(rng, index) for index in range(n_entries)]
    return UnrankedTree(root)


def generate_swissprot_events(n_entries: int = 500, seed: int = 7) -> Iterator[tuple[int, str, bool]]:
    """Streaming event form of :func:`generate_swissprot` (entry at a time)."""
    rng = random.Random(seed)
    yield 0, "sptr", False
    for index in range(n_entries):
        entry_tree = UnrankedTree(_entry(rng, index))
        yield from events_from_tree(entry_tree)
    yield 1, "sptr", False
