"""Property-based equivalence of batch evaluation with its references.

For random trees and random TMNF programs, evaluating a batch of k queries
over an **on-disk** database with :meth:`Database.query_many` (one pair of
linear scans, k bottom-up automata in lockstep) must select, node for node,
exactly what

* per-query :meth:`Database.query` evaluation selects (two scans each), and
* the semi-naive datalog fixpoint reference computes on the in-memory tree.

The program generator draws rules freely from all four TMNF templates (as in
``test_property_equivalence``) so that up/down/local rule interactions are
exercised inside the lockstep scan, not just label filters.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DiskQueryEngine
from repro.baselines.datalog import evaluate_fixpoint
from repro.plan import PlanCache
from repro.plan.kernel import numpy_available
from repro.tree import BinaryTree
from tests.strategies import tmnf_programs as programs, unranked_trees

#: The lockstep implementations available here (numpy is optional).
KERNELS = ("python", "numpy") if numpy_available() else ("python",)

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #


@given(batch=st.lists(programs(), min_size=1, max_size=3), tree=unranked_trees())
@settings(max_examples=25, **COMMON_SETTINGS)
def test_query_many_matches_per_query_and_fixpoint(batch, tree):
    binary = BinaryTree.from_unranked(tree)
    with tempfile.TemporaryDirectory() as directory:
        database = Database.build(tree, f"{directory}/random")
        database.plan_cache = PlanCache()
        results = database.query_many(batch)
        assert len(results) == len(batch)
        for program, result in zip(batch, results):
            predicate = program.query_predicates[0]
            single = database.query(program, engine="disk")
            fixpoint = evaluate_fixpoint(program, binary)
            assert result.selected[predicate] == single.selected[predicate]
            assert result.selected[predicate] == fixpoint.selected[predicate]
            assert result.counts[predicate] == len(fixpoint.selected[predicate])
        # The batch touched the .arb file with exactly one scan pair.
        assert results.arb_io.seeks == 2


@given(program=programs(), tree=unranked_trees())
@settings(max_examples=25, **COMMON_SETTINGS)
def test_batch_of_one_equals_single_disk_evaluation(program, tree):
    with tempfile.TemporaryDirectory() as directory:
        database = Database.build(tree, f"{directory}/random")
        database.plan_cache = PlanCache()
        batch = database.query_many([program])
        single = database.query(program, engine="disk")
        assert batch[0].selected == single.selected
        assert batch.state_file_bytes == 4 * database.n_nodes

        # A single disk query IS a batch of one without the index: every
        # counter is equal, not just the answers -- per kernel, cold (a fresh
        # plan per run, so the transition counters are this run's), on a
        # geometry where records straddle pages and every file spans several.
        paged = Database.build(tree, f"{directory}/paged", page_size=7)
        observed = []
        for kernel in KERNELS:
            paged.plan_cache = PlanCache()
            batch = paged.query_many([program], use_index=False, kernel=kernel)
            paged.plan_cache = PlanCache()
            single = paged.query(program, engine="disk", kernel=kernel)
            facade = DiskQueryEngine(program, kernel=kernel).evaluate(paged.disk)
            assert single.backend == "disk"
            for result, io in ((single, single.io), (facade, facade.io)):
                assert result.selected == batch[0].selected
                assert _counters(result.statistics, io) == _counters(batch[0].statistics, batch.io)
            depths = (facade.phase1_stack_depth, facade.phase2_stack_depth)
            assert depths == (batch.phase1_stack_depth, batch.phase2_stack_depth)
            assert facade.state_file_bytes == batch.state_file_bytes == 4 * paged.n_nodes
            observed.append((batch[0].selected, _counters(batch[0].statistics, batch.io), depths))
        # ... and the two kernels agree with each other on all of it.
        assert all(entry == observed[0] for entry in observed)


def _counters(statistics, io):
    return (
        statistics.bu_transitions, statistics.td_transitions, statistics.bu_states,
        statistics.td_states, statistics.nodes, statistics.selected,
        io.pages_read, io.bytes_read, io.bytes_written, io.seeks,
    )
