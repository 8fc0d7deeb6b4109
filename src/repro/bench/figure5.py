"""Regeneration of Figure 5: statistics on `.arb` database creation.

The paper reports, for Treebank, ACGT-infix, ACGT-flat and SwissProt: the
numbers of element and character nodes, the number of tags, the database
creation time and the sizes of the `.arb`, `.lab` and temporary `.evt` files.
This module builds the four databases (from the synthetic dataset generators
of :mod:`repro.datasets`, which stand in for the paper's corpora) and returns
the same row format.

Scale is controlled by a single factor: the paper's originals have ~32M to
~300M nodes, which is out of reach for a pure-Python run in CI time, so the
default scale produces databases that are smaller by a constant factor while
keeping the relative composition (char/element ratio, tag counts) intact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.datasets.acgt import acgt_flat_events, acgt_infix_tree, random_sequence
from repro.datasets.swissprot import generate_swissprot_events
from repro.datasets.treebank import generate_treebank
from repro.storage.build import BuildStatistics, DatabaseBuilder
from repro.tree.binary import NO_NODE, BinaryTree

__all__ = ["Figure5Scale", "SCALES", "build_figure5_database", "figure5_rows", "DATABASE_NAMES"]

DATABASE_NAMES = ("Treebank", "ACGT-infix", "ACGT-flat", "SWISSPROT")


@dataclass(frozen=True)
class Figure5Scale:
    """Scale knobs for the four databases."""

    treebank_nodes: int
    acgt_exponent: int  # sequence length is 2**exponent - 1
    swissprot_entries: int


SCALES: dict[str, Figure5Scale] = {
    # Fast enough for CI; keeps the paper's relative composition.
    "small": Figure5Scale(treebank_nodes=30_000, acgt_exponent=13, swissprot_entries=300),
    "medium": Figure5Scale(treebank_nodes=200_000, acgt_exponent=16, swissprot_entries=2_000),
    # Closest to the paper that is still practical in pure Python.
    "large": Figure5Scale(treebank_nodes=1_000_000, acgt_exponent=20, swissprot_entries=10_000),
}


def _binary_tree_events(tree: BinaryTree):
    """Begin/end events for a tree that is *already* binary (ACGT-infix).

    The infix tree is defined directly over first/second children, so its
    event stream is simply the pre/post visit of the binary structure -- the
    database then stores exactly that binary tree.
    """
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        node, closing = stack.pop()
        label = tree.labels[node]
        is_text = len(label) == 1
        if closing:
            yield 1, label, is_text
            continue
        yield 0, label, is_text
        stack.append((node, True))
        second = tree.second_child[node]
        if second != NO_NODE:
            stack.append((second, False))
        first = tree.first_child[node]
        if first != NO_NODE:
            stack.append((first, False))
    return


def build_figure5_database(
    name: str,
    output_dir: str,
    scale: Figure5Scale | str = "small",
    seed: int = 2003,
) -> BuildStatistics:
    """Build one of the four Figure-5 databases and return its statistics row."""
    if isinstance(scale, str):
        scale = SCALES[scale]
    builder = DatabaseBuilder(keep_event_file=False)
    base = os.path.join(output_dir, name.lower().replace("-", "_"))
    if name == "Treebank":
        tree = generate_treebank(scale.treebank_nodes, seed=seed)
        return builder.build_from_tree(tree, base, name=name)
    if name == "ACGT-flat":
        sequence = random_sequence(2**scale.acgt_exponent - 1, seed=seed)
        return builder.build_from_events(acgt_flat_events(sequence), base, name=name)
    if name == "ACGT-infix":
        sequence = random_sequence(2**scale.acgt_exponent - 1, seed=seed)
        infix = acgt_infix_tree(sequence)
        return builder.build_from_events(_binary_tree_events(infix), base, name=name)
    if name == "SWISSPROT":
        events = generate_swissprot_events(scale.swissprot_entries, seed=seed)
        return builder.build_from_events(events, base, name=name)
    raise ValueError(f"unknown Figure 5 database {name!r}; expected one of {DATABASE_NAMES}")


def figure5_rows(output_dir: str, scale: Figure5Scale | str = "small") -> list[dict[str, object]]:
    """Build all four databases and return the Figure-5 table rows."""
    return [build_figure5_database(name, output_dir, scale).as_row() for name in DATABASE_NAMES]
