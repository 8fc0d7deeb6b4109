"""Folding statistics: one plain fold, and the views that use it.

* :meth:`EvaluationStatistics.merged` sums the counters of the runs it is
  given and takes the maximum of the state-table gauges; the fold is
  commutative, so input order never changes the totals;
* :class:`IOStatistics` accumulates in place;
* a :meth:`CollectionQueryResult.for_query` view folds its query's
  per-document statistics and shares the batch's scan counters, because
  that scan pair served the whole batch.
"""

from __future__ import annotations

import random

import pytest

from repro import Collection, EvaluationStatistics, IOStatistics, PlanCache
from repro.collection.result import CollectionQueryResult
from repro.errors import EvaluationError

DOCUMENT = "<lib>" + "<a/>" * 3 + "<b/>" * 5 + "<c/>" * 7 + "</lib>"
QUERIES = [
    "QUERY :- V.Label[a];",
    "QUERY :- V.Label[b];",
    "QUERY :- V.Label[c];",
]


def _stats(**overrides) -> EvaluationStatistics:
    base = dict(
        bu_seconds=0.5, td_seconds=0.25, bu_transitions=10, td_transitions=20,
        bu_states=4, td_states=3, nodes=100, selected=7,
        memory_estimate_kb=1.5, plan_cache_hits=1, plan_cache_misses=0,
    )
    base.update(overrides)
    return EvaluationStatistics(**base)


# --------------------------------------------------------------------------- #
# EvaluationStatistics
# --------------------------------------------------------------------------- #


def test_merge_sums_counters_and_maxes_gauges():
    merged = EvaluationStatistics.merged([_stats(), _stats(bu_states=9, selected=3, nodes=50)])
    assert merged.bu_seconds == 1.0
    assert merged.bu_transitions == 20
    assert merged.selected == 10
    assert merged.nodes == 150
    assert merged.plan_cache_hits == 2
    # State-table sizes are gauges of possibly-shared memo tables: max.
    assert merged.bu_states == 9
    assert merged.td_states == 3


def test_merge_is_commutative():
    a, b = _stats(selected=1), _stats(selected=41, bu_states=8)
    assert EvaluationStatistics.merged([a, b]) == EvaluationStatistics.merged([b, a])


def test_merged_counts_a_run_as_often_as_it_is_passed():
    # Every execution gets statistics of its own, so the fold does not
    # second-guess its input: a run passed twice is counted twice.
    a, b = _stats(selected=1), _stats(selected=2)
    assert EvaluationStatistics.merged([a, b, a]).selected == 4


def test_merged_is_order_independent():
    runs = [_stats(selected=index, bu_transitions=index * 3) for index in range(6)]
    shuffled = runs[:]
    random.Random(5).shuffle(shuffled)
    assert EvaluationStatistics.merged(shuffled) == EvaluationStatistics.merged(runs)


def test_merged_builds_a_new_object_and_leaves_its_runs_alone():
    run = _stats()
    total = EvaluationStatistics.merged([run])
    assert total == run and total is not run
    total.selected += 1
    assert run == _stats()


def test_merged_of_nothing_is_zero():
    assert EvaluationStatistics.merged([]) == EvaluationStatistics()


def test_merged_equal_but_distinct_objects_still_sum():
    # Two distinct runs that happen to have equal counters are two runs.
    a, b = _stats(), _stats()
    assert EvaluationStatistics.merged([a, b]).selected == 2 * a.selected


# --------------------------------------------------------------------------- #
# IOStatistics: in-place accumulation
# --------------------------------------------------------------------------- #


def _io(**overrides) -> IOStatistics:
    base = dict(bytes_read=100, bytes_written=10, pages_read=4, pages_written=1, seeks=2)
    base.update(overrides)
    return IOStatistics(**base)


def test_add_matches_merge_but_mutates_in_place():
    accumulator, other = _io(), _io(bytes_read=50, seeks=1)
    expected = accumulator.merge(other)
    returned = accumulator.add(other)
    assert returned is accumulator  # in place: the pool's per-page fold
    assert accumulator == expected
    # The right-hand operand is untouched.
    assert other == _io(bytes_read=50, seeks=1)


def test_iadd_is_add():
    accumulator = _io()
    alias = accumulator
    accumulator += _io()
    assert accumulator is alias  # += never rebinds to a fresh dataclass
    assert accumulator == _io().merge(_io())


def test_add_folds_like_sum():
    parts = [_io(pages_read=index) for index in range(7)]
    folded = IOStatistics()
    for part in parts:
        folded += part
    merged = IOStatistics()
    for part in parts:
        merged = merged.merge(part)
    assert folded == merged


# --------------------------------------------------------------------------- #
# CollectionQueryResult
# --------------------------------------------------------------------------- #


@pytest.fixture
def batch_result(tmp_path) -> CollectionQueryResult:
    collection = Collection.create(str(tmp_path / "corpus"), plan_cache=PlanCache())
    for index in range(3):
        collection.add_document(DOCUMENT, doc_id=f"doc-{index}")
    return collection.query_many(QUERIES)


def test_for_query_views_restrict_to_one_query(batch_result):
    for index, query in enumerate(QUERIES):
        view = batch_result.for_query(index)
        assert len(view.programs) == 1
        assert view.programs[0] is batch_result.programs[index]
        assert view.count() == batch_result.count(query_index=index)
        # The view shares the batch's scan counters: that scan pair served
        # the whole batch, not this query alone.
        assert view.arb_io is batch_result.arb_io
    with pytest.raises(EvaluationError):
        batch_result.for_query(len(QUERIES))


def test_for_query_views_fold_their_query_per_document_statistics(batch_result):
    for index in range(len(QUERIES)):
        view = batch_result.for_query(index)
        expected = EvaluationStatistics.merged(
            doc.results[index].statistics for doc in batch_result.documents
        )
        assert view.statistics == expected
        assert view.statistics.selected == 3 * (3, 5, 7)[index]
        assert view.arb_io is batch_result.arb_io
        assert view.state_io is batch_result.state_io
