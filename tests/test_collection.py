"""The sharded document-collection layer: manifest, worker pools, invariants.

The acceptance test of the layer is here: a collection of >= 8 documents
evaluated with 4 workers must return exactly what sequential per-document
evaluation returns, and the per-document (per-shard) `.arb` page counts must
be independent of how many queries ride in one batch.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import Collection, Database, EvaluationStatistics
from repro.collection import (
    CollectionManifest,
    CollectionQueryResult,
    DocumentEntry,
    partition_documents,
)
from repro.collection.manifest import validate_doc_id
from repro.errors import EvaluationError, StorageError
from repro.plan import PlanCache
from repro.storage.paging import IOStatistics
from tests.conftest import random_unranked_tree

QUERIES = [
    "QUERY :- V.Label[a];",
    "QUERY :- V.Label[b];",
    "QUERY :- V.Root;",
    "QUERY :- V.Label[c].invFirstChild;",
]


@pytest.fixture()
def corpus(tmp_path):
    """A collection of 10 random documents with a private plan cache."""
    rng = random.Random(20030915)
    collection = Collection.create(str(tmp_path / "corpus"), name="test-corpus",
                                   plan_cache=PlanCache())
    for index in range(10):
        tree = random_unranked_tree(rng, max_nodes=40)
        collection.add_document(tree, doc_id=f"doc-{index:02d}")
    return collection


def sequential_reference(collection, query):
    """Per-document answers via plain sequential Database.query on disk."""
    reference = {}
    for doc_id in collection.doc_ids:
        database = collection.open_database(doc_id)
        reference[doc_id] = database.query(query, engine="disk").selected_nodes()
        database.close()
    return reference


# --------------------------------------------------------------------------- #
# Acceptance: parallel == sequential, per-shard I/O independent of k
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_parallel_collection_equals_sequential_per_document(corpus, n_workers):
    assert len(corpus) >= 8
    result = corpus.query_many(QUERIES, n_workers=n_workers)
    assert len(result) == len(corpus)
    for index, query in enumerate(QUERIES):
        reference = sequential_reference(corpus, query)
        assert result.selected_nodes(query_index=index) == reference
    # Sharding changes who scans, never what is scanned: the corpus costs the
    # sum of its documents' batches, whatever the worker count.
    sequential_io = IOStatistics()
    for doc_id in corpus.doc_ids:
        database = corpus.open_database(doc_id)
        sequential_io.add(database.query_many(QUERIES, engine="disk").arb_io)
        database.close()
    assert sequential_io.seeks == 2 * len(corpus)
    assert result.arb_io == sequential_io


def test_per_document_pages_read_independent_of_batch_size(corpus):
    """The per-shard scan-count invariant, verified on aggregated statistics."""
    single = corpus.query_many(QUERIES[:1], engine="disk", n_workers=4)
    full = corpus.query_many(QUERIES, engine="disk", n_workers=4)
    for doc_id in corpus.doc_ids:
        one, many = single.document(doc_id), full.document(doc_id)
        assert one.arb_io.pages_read == many.arb_io.pages_read
        assert one.arb_io.seeks == many.arb_io.seeks == 2  # one scan pair
        # So does the state file: one composite id per node, whatever k is.
        assert many.state_file_bytes == one.state_file_bytes
    # Aggregates agree with the per-document counters.
    assert full.arb_io.pages_read == sum(
        doc.arb_io.pages_read for doc in full.documents
    )
    assert full.arb_io.seeks == 2 * len(corpus)
    assert full.statistics.nodes == corpus.n_nodes


@pytest.mark.parametrize("n_workers", [1, 2])
def test_batch_statistics_equal_its_merged_views(corpus, n_workers):
    """The batch and the fold of its per-query views count the same runs."""
    full = corpus.query_many(QUERIES, n_workers=n_workers)
    views = CollectionQueryResult.merged(full.for_query(i) for i in range(len(QUERIES)))
    for field in dataclasses.fields(EvaluationStatistics):
        if not field.name.endswith("_seconds"):
            assert getattr(full.statistics, field.name) == getattr(
                views.statistics, field.name
            ), field.name
    assert full.statistics.bu_states > 0
    assert full.statistics.memory_estimate_kb > 0


@pytest.mark.parametrize("n_workers", [1, 4])
def test_wall_clock_statistics_recorded(corpus, n_workers):
    # 1 runs in the calling thread, 4 on worker processes.
    result = corpus.query(QUERIES[0], n_workers=n_workers)
    assert result.wall_seconds > 0
    assert result.n_shards == n_workers


# --------------------------------------------------------------------------- #
# Plan-cache sharing across shards
# --------------------------------------------------------------------------- #


def test_one_worker_shares_plans_through_the_keyed_cache(corpus):
    corpus.plan_cache = PlanCache()
    result = corpus.query_many(QUERIES, n_workers=1)
    assert result.n_shards == 1
    # The coordinator compiles each query once; every per-document evaluation
    # of the one in-thread shard is then served by the shared keyed cache.
    assert corpus.plan_cache.misses == len(QUERIES)
    assert result.statistics.plan_cache_hits == len(QUERIES) * len(corpus)
    assert result.statistics.plan_cache_misses == 0
    # A second collection-level call stays all-hit.
    again = corpus.query_many(QUERIES, n_workers=1)
    assert corpus.plan_cache.misses == len(QUERIES)
    assert again.statistics.plan_cache_misses == 0


def test_one_document_runs_in_the_calling_thread_whatever_the_worker_count(tmp_path):
    collection = Collection.create(str(tmp_path / "single"), plan_cache=PlanCache())
    collection.add_document(random_unranked_tree(random.Random(7), max_nodes=40),
                            doc_id="only")
    result = collection.query_many(QUERIES, n_workers=4)
    # One document is one shard: no pool is started, and the document's
    # evaluation hits the plans the coordinator put in the collection cache.
    assert result.n_shards == 1
    assert collection.plan_cache.misses == len(QUERIES)
    assert result.statistics.plan_cache_hits == len(QUERIES)
    assert result.statistics.plan_cache_misses == 0
    for index, query in enumerate(QUERIES):
        assert result.selected_nodes(query_index=index) == sequential_reference(
            collection, query
        )


def test_process_workers_share_plans_within_each_shard(corpus):
    corpus.plan_cache = PlanCache()
    result = corpus.query_many(QUERIES, n_workers=4)
    # Process-local caches: the first document of each shard compiles, the
    # shard's remaining documents hit.
    expected_misses = len(QUERIES) * result.n_shards
    assert result.statistics.plan_cache_misses == expected_misses
    assert result.statistics.plan_cache_hits == (
        len(QUERIES) * len(corpus) - expected_misses
    )


# --------------------------------------------------------------------------- #
# Planner integration
# --------------------------------------------------------------------------- #


def test_single_streamable_xpath_is_a_batch_of_one(corpus):
    result = corpus.query("//a", language="xpath", n_workers=2)
    for doc in result:
        assert doc.backend == "disk"
        assert doc.arb_io.seeks == 2  # the scan pair, like any batch
        assert doc.state_file_bytes > 0
    reference = {
        doc_id: corpus.open_database(doc_id).query(
            "//a", language="xpath", engine="memory"
        ).selected_nodes()
        for doc_id in corpus.doc_ids
    }
    assert result.selected_nodes() == reference


def test_forced_memory_engine(corpus):
    result = corpus.query(QUERIES[0], engine="memory", n_workers=2)
    assert all(doc.backend == "memory" for doc in result)
    assert result.selected_nodes() == sequential_reference(corpus, QUERIES[0])


def test_unknown_engine_fails_before_a_pool_starts(corpus, monkeypatch):
    import repro.collection.executor as executor

    def refuse():
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(executor, "_worker_context", refuse)
    with pytest.raises(EvaluationError, match="unknown engine"):
        corpus.query("//b", language="xpath", engine="quantum", n_workers=2)


# --------------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------------- #


def test_partition_documents_balances_by_node_count():
    entries = [
        DocumentEntry(doc_id=f"d{i}", base=f"docs/d{i}", n_nodes=n)
        for i, n in enumerate([100, 90, 40, 30, 20, 10])
    ]
    shards = partition_documents(entries, 2)
    assert len(shards) == 2
    loads = [sum(entry.n_nodes for entry in shard) for shard in shards]
    assert sum(loads) == 290
    assert max(loads) - min(loads) <= 30  # LPT keeps the split near-even
    # Never more shards than documents.
    assert len(partition_documents(entries[:2], 8)) == 2
    with pytest.raises(EvaluationError):
        partition_documents(entries, 0)


# --------------------------------------------------------------------------- #
# Manifest and membership
# --------------------------------------------------------------------------- #


def test_manifest_round_trip(corpus):
    reopened = Collection.open(corpus.root, plan_cache=PlanCache())
    assert reopened.doc_ids == corpus.doc_ids
    assert reopened.n_nodes == corpus.n_nodes
    for original, loaded in zip(corpus.documents, reopened.documents):
        assert original == loaded
    # The reopened collection answers identically.
    assert (
        reopened.query(QUERIES[0], n_workers=2).selected_nodes()
        == corpus.query(QUERIES[0], n_workers=2).selected_nodes()
    )


def test_create_refuses_existing_collection(corpus):
    with pytest.raises(StorageError):
        Collection.create(corpus.root)
    assert len(Collection.open_or_create(corpus.root)) == len(corpus)


def test_duplicate_and_invalid_document_ids(corpus):
    with pytest.raises(StorageError):
        corpus.add_document("<a/>", doc_id="doc-00")
    for bad in ("", ".hidden", "a/b", "a\\b"):
        with pytest.raises(StorageError):
            validate_doc_id(bad)


def test_add_xml_files_saves_the_manifest_once(tmp_path):
    paths = []
    for index in range(4):
        path = tmp_path / f"bulk{index}.xml"
        path.write_text(f"<a><b/>{'<c/>' * index}</a>")
        paths.append(str(path))
    collection = Collection.create(str(tmp_path / "bulk"), plan_cache=PlanCache())
    entries = collection.add_xml_files(paths)
    assert [entry.doc_id for entry in entries] == [f"bulk{i}" for i in range(4)]
    reopened = Collection.open(collection.root, plan_cache=PlanCache())
    assert reopened.doc_ids == collection.doc_ids


def test_open_requires_manifest(tmp_path):
    with pytest.raises(StorageError):
        Collection.open(str(tmp_path / "nowhere"))
    with pytest.raises(StorageError):
        CollectionManifest.load(str(tmp_path))


def test_query_validation(corpus, tmp_path):
    with pytest.raises(EvaluationError):
        corpus.query_many([], n_workers=2)
    for n_workers in (0, 2.0, "2", None):
        with pytest.raises(EvaluationError, match="n_workers"):
            corpus.query(QUERIES[0], n_workers=n_workers)
    empty = Collection.create(str(tmp_path / "empty"), plan_cache=PlanCache())
    with pytest.raises(EvaluationError):
        empty.query(QUERIES[0])


def test_open_database_shares_the_collection_cache(corpus):
    database = corpus.open_database("doc-00")
    assert isinstance(database, Database)
    assert database.plan_cache is corpus.plan_cache
    stats = corpus.stats()
    assert stats["documents"] == len(corpus)
    assert stats["total_nodes"] == corpus.n_nodes
