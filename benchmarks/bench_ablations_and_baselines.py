"""Ablations and baseline comparisons beyond the paper's tables.

* **Lazy vs. recompute**: the effect of memoising automaton transitions
  (Section 6.3's "warm-up phase" observation).
* **Two-phase vs. datalog fixpoint**: the automata engine against the direct
  least-fixpoint evaluation of the same TMNF program.
* **Arb vs. one-pass streaming**: for a simple downward path query (the only
  kind the streaming engine supports), how the expressive engine compares to
  the restricted one.
* **Disk vs. memory**: the cost of the secondary-storage path (two linear
  scans plus the temporary state file) relative to the in-memory evaluator.
* **Linear scaling**: total time per node stays flat as the data grows
  (the O(m + n) claim).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro import Database
from repro.baselines.datalog import evaluate_fixpoint
from repro.bench.figure6 import load_block_tree
from repro.bench.reporting import format_table
from repro.core.two_phase import TwoPhaseEvaluator
from repro.datasets.random_queries import STEP_SOME_CHILD, TREEBANK_ALPHABET, random_query_batch
from repro.plan import PlanCache
from repro.storage import build_database
from repro.streaming import StreamingEngine
from repro.tmnf import TMNFProgram
from repro.xpath import xpath_to_program

QUERY = random_query_batch(7, TREEBANK_ALPHABET, count=1, seed=5)[0]
PROGRAM_TEXT = QUERY.to_program_text(STEP_SOME_CHILD)


@pytest.mark.parametrize("memoize", [True, False], ids=["lazy", "recompute"])
def test_ablation_lazy_transitions(benchmark, treebank_tree, memoize):
    program = TMNFProgram.parse(PROGRAM_TEXT)

    def run():
        return TwoPhaseEvaluator(program, memoize=memoize).evaluate(treebank_tree)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.statistics
    benchmark.extra_info["transitions_computed"] = stats.bu_transitions + stats.td_transitions
    report(
        f"Ablation: transition memoisation ({'lazy' if memoize else 'recompute'})",
        format_table([{
            "memoize": memoize,
            "bu_transitions": stats.bu_transitions,
            "td_transitions": stats.td_transitions,
            "total_time_s": round(stats.total_seconds, 3),
        }]),
    )


@pytest.mark.parametrize("engine", ["two-phase", "fixpoint"])
def test_baseline_datalog_fixpoint(benchmark, treebank_tree, engine):
    program = TMNFProgram.parse(PROGRAM_TEXT)

    if engine == "two-phase":
        run = lambda: TwoPhaseEvaluator(program).evaluate(treebank_tree)  # noqa: E731
    else:
        run = lambda: evaluate_fixpoint(program, treebank_tree)  # noqa: E731

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    selected = result.selected[program.query_predicates[0]]
    benchmark.extra_info["selected"] = len(selected)
    report(f"Baseline: {engine}", format_table([{"engine": engine, "selected": len(selected)}]))


@pytest.mark.parametrize("engine", ["arb", "streaming"])
def test_baseline_streaming_path_query(benchmark, treebank_tree, engine):
    """A downward path query both engines can answer: //S//VP/NP."""
    expression = "//S//VP/NP"
    unranked = treebank_tree.to_unranked()

    if engine == "arb":
        program = xpath_to_program(expression)

        def run():
            return TwoPhaseEvaluator(program).evaluate(treebank_tree).selected["QUERY"]

    else:

        def run():
            return StreamingEngine(expression).select_from_tree(unranked)

    selected = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["selected"] = len(selected)
    report(f"Streaming comparison: {engine}",
           format_table([{"engine": engine, "selected": len(selected)}]))


@pytest.mark.parametrize("path", ["memory", "disk"])
def test_disk_vs_memory(benchmark, tmp_path, scale, path):
    tree = load_block_tree("treebank", treebank_nodes=min(scale.treebank_nodes, 20_000))
    program = TMNFProgram.parse(PROGRAM_TEXT)
    if path == "disk":
        base = str(tmp_path / "treebank")
        build_database(tree.to_unranked(), base)
        database = Database.open(base)
        database.plan_cache = PlanCache()  # cold automata, like the memory path

        def run():
            return database.query(program, engine="disk")

    else:

        def run():
            return TwoPhaseEvaluator(program).evaluate(tree)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    row = {"path": path, "selected": result.statistics.selected}
    if path == "disk":
        row["bytes_read"] = result.io.bytes_read
        row["seeks"] = result.io.seeks
    report(f"Disk vs memory: {path}", format_table([row]))


@pytest.mark.parametrize("exponent", [10, 12, 14])
def test_linear_scaling_in_data_size(benchmark, exponent):
    """O(m + n): per-node time stays flat while n grows 16x."""
    tree = load_block_tree("acgt-flat", acgt_exponent=exponent)
    program = TMNFProgram.parse(
        random_query_batch(6, ("A", "C", "G", "T"), count=1, seed=9)[0].to_program_text(
            "invNextSibling"
        )
    )

    def run():
        return TwoPhaseEvaluator(program).evaluate(tree)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    per_node = result.statistics.total_seconds / len(tree)
    benchmark.extra_info["nodes"] = len(tree)
    benchmark.extra_info["microseconds_per_node"] = per_node * 1e6
    report(
        f"Linear scaling, n = {len(tree)}",
        format_table([{
            "nodes": len(tree),
            "total_time_s": round(result.statistics.total_seconds, 4),
            "us_per_node": round(per_node * 1e6, 2),
        }]),
    )


def test_io_behavior_two_linear_scans(benchmark, tmp_path):
    """The headline storage claim: the .arb file is read in exactly two linear scans."""
    tree = load_block_tree("acgt-flat", acgt_exponent=12)
    base = str(tmp_path / "acgt")
    build_database(tree.to_unranked(), base)
    database = Database.open(base)
    database.plan_cache = PlanCache()
    program = TMNFProgram.parse(
        random_query_batch(5, ("A", "C", "G", "T"), count=1, seed=3)[0].to_program_text(
            "invNextSibling"
        )
    )

    def run():
        return database.query_many([program], engine="disk")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    arb_bytes = database.disk.file_size()
    state_bytes = result.state_file_bytes
    report(
        "I/O behaviour (disk engine)",
        format_table([{
            "arb_bytes": arb_bytes,
            "state_file_bytes": state_bytes,
            "bytes_read": result.io.bytes_read,
            "bytes_written": result.io.bytes_written,
            "seeks": result.io.seeks,
            "phase1_stack": result.phase1_stack_depth,
            "phase2_stack": result.phase2_stack_depth,
        }]),
    )
    # Reads = two scans of .arb + one scan of the state file (allowing for the
    # page-aligned backward reads); writes = the state file once.
    assert result.io.bytes_read <= 2 * arb_bytes + state_bytes + 4 * 64 * 1024
    assert result.io.bytes_read >= 2 * arb_bytes + state_bytes
    assert result.io.seeks <= 6
    assert result.phase1_stack_depth <= 3
