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

The three entry points that execute a batch -- :meth:`Database.query_many`,
:meth:`Collection.query_many` and :class:`QueryService` -- are one plan
dispatcher behind three front doors, so over the same on-disk document they
must agree on everything they report, whatever execution options are drawn,
and a single query is a batch of one through every one of them.
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Collection, Database, QueryService
from repro.baselines.datalog import evaluate_fixpoint
from repro.plan import PlanCache
from repro.tree import BinaryTree
from tests.conftest import sidecars_hidden
from tests.strategies import tmnf_programs as programs, unranked_trees


def _situation(directory, use_index=True):
    """Put the code where it finds, or not, the sidecars."""
    return contextlib.nullcontext() if use_index else sidecars_hidden(directory)

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

        # A single disk query IS a batch of one: every counter is equal, not
        # just the answers -- cold (a fresh plan per run, so the transition
        # counters are this run's), on a geometry where records straddle
        # pages and every file spans several; with the sidecar, so both skip
        # the same pages, and with it hidden, when neither skips.
        paged = Database.build(tree, f"{directory}/paged", page_size=7)
        for use_index in (True, False):
            with _situation(directory, use_index):
                paged.plan_cache = PlanCache()
                batch = paged.query_many([program])
                paged.plan_cache = PlanCache()
                single = paged.query(program, engine="disk")
            assert single.backend == "disk"
            assert single.selected == batch[0].selected
            assert _counters(single.statistics, single.io) == _counters(batch[0].statistics, batch.io)
            assert batch.state_file_bytes <= 4 * paged.n_nodes
            if not use_index:
                assert batch.state_file_bytes == 4 * paged.n_nodes


def _counters(statistics, io):
    return (
        statistics.bu_transitions, statistics.td_transitions, statistics.bu_states,
        statistics.td_states, statistics.nodes, statistics.selected,
        io.pages_read, io.bytes_read, io.bytes_written, io.seeks,
    )


# --------------------------------------------------------------------------- #
# One dispatcher behind three entry points
# --------------------------------------------------------------------------- #


def _served(database, queries, *, language="tmnf", **options):
    """``queries`` through a QueryService as one coalesced batch."""

    async def scenario():
        service = QueryService(database, window=5.0, max_batch=len(queries), **options)
        async with service:
            return await asyncio.gather(
                *(service.submit(query, language=language) for query in queries)
            )

    return asyncio.run(scenario())


@given(
    batch=st.lists(programs(), min_size=1, max_size=4),
    tree=unranked_trees(),
    engine=st.sampled_from((None, "disk", "memory")),
    use_index=st.booleans(),
    collect=st.booleans(),
)
@settings(max_examples=25, **COMMON_SETTINGS)
def test_database_collection_and_service_agree(batch, tree, engine, use_index, collect):
    options = dict(collect_selected_nodes=collect)
    with contextlib.ExitStack() as stack:
        directory = stack.enter_context(tempfile.TemporaryDirectory())
        collection = Collection.create(f"{directory}/corpus", plan_cache=PlanCache())
        doc_id = collection.add_document(tree).doc_id
        database = collection.open_database(doc_id)
        database.plan_cache = PlanCache()
        stack.enter_context(_situation(directory, use_index))
        direct = database.query_many(batch, engine=engine, **options)
        sharded = collection.query_many(batch, engine=engine, **options).document(doc_id)
        assert [r.selected for r in sharded.results] == [r.selected for r in direct]
        assert [r.counts for r in sharded.results] == [r.counts for r in direct]
        assert sharded.arb_io == direct.arb_io
        assert sharded.state_file_bytes == direct.state_file_bytes
        assert sharded.backend == direct.backend == ("memory" if engine == "memory" else "disk")
        if not collect:
            assert all(nodes == [] for r in direct for nodes in r.selected.values())
        if engine == "memory":
            return  # the service has no engine keyword: it always takes the dispatcher's default
        database.plan_cache = PlanCache()
        responses = _served(database, batch, **options)
        assert [r.result.selected for r in responses] == [r.selected for r in direct]
        assert [r.result.counts for r in responses] == [r.counts for r in direct]
        assert all(r.batch_size == len(batch) for r in responses)
        assert all(r.batch_arb_io == direct.arb_io for r in responses)
        # A lockstep result's ``io`` is the batch's `.arb` plus state-file I/O,
        # so its written bytes are the state file the service does not report.
        assert all(r.result.io.bytes_written == direct.state_file_bytes for r in responses)
        assert all(r.result.backend == direct.backend for r in responses)
        assert direct.snapshot is not None
        assert all(r.snapshot == direct.snapshot for r in responses)


@st.composite
def _multi_page_documents(draw) -> str:
    """A few relevant nodes, then 65 000 to 80 000 more in sections of 5 000,
    most of them labels the ``a``/``b`` programs never mention: a collection
    builds on 64 KiB pages, and skipping needs more than two of them."""
    head = "<b>" + "<a/>" * draw(st.integers(200, 3000)) + "</b>"
    relevant = draw(st.lists(st.sampled_from((False, False, False, True)), min_size=14, max_size=16))
    return "<r>" + head + "".join(
        ("<b>" + "<a/>" * 5000 + "</b>") if section else ("<n0>" + "<n1/>" * 5000 + "</n0>")
        for section in relevant
    ) + "</r>"


@given(document=_multi_page_documents(), program=programs())
@settings(max_examples=8, **COMMON_SETTINGS)
def test_every_entry_point_skips_what_a_batch_of_one_skips(document, program):
    """One dispatcher, one scan pair, one skip plan: a single
    ``engine="disk"`` query is not a special case that reads every page."""
    with tempfile.TemporaryDirectory() as directory:
        collection = Collection.create(f"{directory}/corpus", plan_cache=PlanCache())
        doc_id = collection.add_document(document).doc_id
        database = collection.open_database(doc_id)
        n_pages = -(-database.disk.file_size() // database.disk.page_size)
        assert n_pages >= 3
        # A random program, then one naming a label the document lacks --
        # a batch the sidecar lets skip nearly everything.
        for query in (program, "QUERY :- V.Label[absent];"):
            batch = database.query_many([query])
            single = database.query(query, engine="disk")
            sharded = collection.query(query).document(doc_id)
            served = _served(database, [query])[0]
            assert (single.backend, single.io) == ("disk", batch.io)
            assert sharded.arb_io == served.batch_arb_io == batch.arb_io
            assert single.selected == sharded.results[0].selected == served.result.selected == batch[0].selected
        assert batch.arb_io.pages_read < 2 * n_pages


def test_a_single_streamable_query_is_a_batch_of_one_everywhere():
    """No entry point routes a lone predicate-free XPath path anywhere else:
    ``Database.query``, ``query_many([q])``, ``Collection.query`` and the
    service all take the one scan pair."""
    streamable = "//book/title"
    with tempfile.TemporaryDirectory() as directory:
        collection = Collection.create(f"{directory}/corpus", plan_cache=PlanCache())
        document = "<lib>" + "<book><title>ab</title></book><dvd/>" * 400 + "</lib>"
        doc_id = collection.add_document(document).doc_id
        database = collection.open_database(doc_id)

        pair = database.query_many([streamable], language="xpath")
        assert (pair.backend, pair.arb_io.seeks) == ("disk", 2)
        single = database.query(streamable, language="xpath")
        sharded = collection.query(streamable, language="xpath").document(doc_id)
        served = _served(database, [streamable], language="xpath")[0]
        assert single.backend == sharded.backend == served.result.backend == "disk"
        assert single.io == pair.io
        assert sharded.arb_io == served.batch_arb_io == pair.arb_io
        assert sharded.state_file_bytes == pair.state_file_bytes
        expected = pair[0].selected_nodes()
        assert len(expected) == 400
        assert single.selected_nodes() == sharded.selected_nodes() == expected
        assert served.result.selected_nodes() == expected
