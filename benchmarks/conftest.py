"""Shared configuration and fixtures for the Figure 5/6 and ablation drivers.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

``small`` (default)
    finishes in a few minutes on a laptop.
``medium`` / ``large``
    progressively closer to the paper's database sizes (the paper's original
    sizes -- 33M-300M nodes -- are impractical in pure Python; the docstring
    of ``repro.bench.figure5`` discusses the scaling).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.bench.figure6 import load_block_tree


@dataclass(frozen=True)
class BenchScale:
    name: str
    treebank_nodes: int
    acgt_exponent: int
    swissprot_entries: int
    figure6_sizes: tuple[int, ...]
    queries_per_size: int


SCALES = {
    "small": BenchScale("small", 20_000, 13, 300, (5, 7, 9, 11, 13, 15), 3),
    "medium": BenchScale("medium", 100_000, 15, 2_000, (5, 7, 9, 11, 13, 15), 10),
    "large": BenchScale("large", 500_000, 18, 10_000, tuple(range(5, 16)), 25),
}


def current_scale() -> BenchScale:
    return SCALES[os.environ.get("REPRO_BENCH_SCALE", "small")]


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return current_scale()


@pytest.fixture(scope="session")
def treebank_tree(scale):
    return load_block_tree("treebank", treebank_nodes=scale.treebank_nodes)


@pytest.fixture(scope="session")
def acgt_flat_tree_fixture(scale):
    return load_block_tree("acgt-flat", acgt_exponent=scale.acgt_exponent)


@pytest.fixture(scope="session")
def acgt_infix_tree_fixture(scale):
    return load_block_tree("acgt-infix", acgt_exponent=scale.acgt_exponent)


def report(title: str, text: str) -> None:
    """Print a table so it ends up in the captured benchmark output."""
    print()
    print(f"== {title} ==")
    print(text)
