"""Differential testing: all four evaluators agree on every seed document.

``test_property_equivalence`` checks the core evaluators against each other
on random trees; this suite extends the idea systematically to the two
engines of the plan layer (``disk`` and ``memory``) and the two references
beside it, called directly: the naive datalog fixpoint (reference semantics)
and the one-pass streaming engine (the paper's baseline).  For a corpus of
generated XPath queries (drawn from the predicate-free downward fragment,
the intersection all four support) and for random TMNF programs, they must
return identical selected node ids on every seed document -- same queries,
same trees, four completely different access patterns (two scans /
in-memory automata / naive fixpoint / one scan).  The two plan-layer engines
also report the same statistics, per query and for the batch.
"""

from __future__ import annotations

import dataclasses
import tempfile

from hypothesis import HealthCheck, given, settings

from repro import Database, evaluate_fixpoint
from repro.plan import PlanCache, compile_query
from repro.streaming import stream_select
from tests.strategies import tmnf_programs, unranked_trees, xpath_queries

#: Small, structurally diverse documents every example runs against.
SEED_DOCUMENTS = (
    "<a/>",
    "<a><b/></a>",
    "<a><a><a/></a></a>",
    "<a><b/><b/><b/></a>",
    "<a><b><a/></b><a><b/><a/></a></a>",
    "<b><a><b><b/></b></a><b/><a/></b>",
    "<a><b><b><a/><b/></b></b><a><a/></a></a>",
)

ALL_ENGINES = ("streaming", "disk", "memory", "fixpoint")

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The statistics fields disk and memory cannot agree on: the wall clock.
#: The disk scans are shared, so a plan gets a share of their time, and a
#: repeated query gets none, where the memory engine times its warm re-run.
SECONDS_FIELDS = ("bu_seconds", "td_seconds")


def _selected(database, query, language, engine):
    if engine == "fixpoint":
        program = compile_query(query, language=language)
        result = evaluate_fixpoint(program, database.binary_tree())
        return result.selected[program.query_predicates[0]]
    if engine == "streaming":
        return stream_select(database.unranked_tree(), query)
    return database.query(query, language=language, engine=engine).selected_nodes()


def _statistics(database, queries, language, engine) -> list[dict]:
    """Every statistics field but :data:`SECONDS_FIELDS`, of the batch and
    then of each query, evaluated on a fresh plan cache."""
    database.plan_cache = PlanCache()
    batch = database.query_many(queries, language=language, engine=engine)
    return [
        {name: value for name, value in dataclasses.asdict(stats).items() if name not in SECONDS_FIELDS}
        for stats in [batch.statistics] + [result.statistics for result in batch]
    ]


def _assert_statistics_agree(database, queries, language):
    disk = _statistics(database, queries, language, "disk")
    assert disk == _statistics(database, queries, language, "memory")
    return disk[0]


def _assert_engines_agree(query, language, engines, document, base_path):
    """All ``engines`` agree on ``document``, on disk and in memory."""
    on_disk = Database.build(document, base_path)
    on_disk.plan_cache = PlanCache()
    answers = {
        engine: _selected(on_disk, query, language, engine) for engine in engines
    }
    reference = answers[engines[0]]
    assert all(nodes == reference for nodes in answers.values()), answers
    for queries in ([query], [query, query]):  # the second occurrence runs warm
        _assert_statistics_agree(on_disk, queries, language)
    # The memory-resident paths must agree with the disk-resident ones.
    in_memory = Database.from_xml(document)
    in_memory.plan_cache = PlanCache()
    for engine in engines:
        if engine == "disk":
            continue  # the only evaluator that requires secondary storage
        assert _selected(in_memory, query, language, engine) == reference
    return reference


@given(query=xpath_queries())
@settings(max_examples=50, **COMMON_SETTINGS)
def test_all_four_backends_agree_on_generated_xpath(query):
    with tempfile.TemporaryDirectory() as directory:
        for index, document in enumerate(SEED_DOCUMENTS):
            _assert_engines_agree(
                query, "xpath", ALL_ENGINES, document, f"{directory}/doc{index}"
            )


@given(program=tmnf_programs())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_tmnf_backends_agree_on_generated_programs(program):
    """TMNF programs exceed the streaming fragment; the other three agree."""
    with tempfile.TemporaryDirectory() as directory:
        for index, document in enumerate(SEED_DOCUMENTS):
            _assert_engines_agree(
                program, "tmnf", ("disk", "memory", "fixpoint"),
                document, f"{directory}/doc{index}",
            )


@given(query=xpath_queries(), tree=unranked_trees(max_leaves=8))
@settings(max_examples=40, **COMMON_SETTINGS)
def test_all_four_backends_agree_on_random_trees(query, tree):
    """The same differential, with hypothesis shrinking over the tree too."""
    with tempfile.TemporaryDirectory() as directory:
        database = Database.build(tree, f"{directory}/doc")
        database.plan_cache = PlanCache()
        answers = {
            engine: _selected(database, query, "xpath", engine)
            for engine in ALL_ENGINES
        }
        reference = answers["fixpoint"]
        assert all(nodes == reference for nodes in answers.values()), answers


def test_planner_auto_choice_matches_forced_backends():
    """engine=None/auto answers must equal every other evaluator's answer."""
    with tempfile.TemporaryDirectory() as directory:
        for index, document in enumerate(SEED_DOCUMENTS):
            database = Database.build(document, f"{directory}/{index}")
            database.plan_cache = PlanCache()
            for query, language in (("//a/b", "xpath"), ("QUERY :- V.Label[b];", "tmnf")):
                auto = _selected(database, query, language, None)
                engines = ALL_ENGINES if language == "xpath" else ALL_ENGINES[1:]
                for engine in engines:
                    assert _selected(database, query, language, engine) == auto


def test_a_disk_batch_with_a_repeated_query_folds_its_statistics_like_memory():
    with tempfile.TemporaryDirectory() as directory:
        database = Database.build("<a><b/><c/><b/></a>", f"{directory}/doc")
        batch = _assert_statistics_agree(database, ["//b", "//c", "//b"], "xpath")
        assert (batch["bu_states"], batch["td_states"], batch["selected"]) == (2, 2, 5)
        assert (batch["bu_transitions"], batch["td_transitions"]) == (8, 6)
        single = _assert_statistics_agree(database, ["//b"], "xpath")
        assert single["td_states"] == 2
