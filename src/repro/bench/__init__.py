"""Regenerators of the paper's own experiments: Figure 5 and Figure 6."""

from repro.bench.figure5 import SCALES, Figure5Scale, build_figure5_database, figure5_rows
from repro.bench.figure6 import BLOCKS, Figure6Block, figure6_block_rows, load_block_tree, run_query_batch
from repro.bench.reporting import format_table

__all__ = [
    "figure5_rows",
    "build_figure5_database",
    "Figure5Scale",
    "SCALES",
    "figure6_block_rows",
    "run_query_batch",
    "load_block_tree",
    "Figure6Block",
    "BLOCKS",
    "format_table",
]
