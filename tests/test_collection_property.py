"""Property-based correctness of parallel collection evaluation.

For hypothesis-generated corpora of small random trees and random TMNF
query batches:

* evaluating the corpus through the sharded parallel executor must select,
  document for document and node for node, exactly the union of per-document
  sequential :meth:`Database.query` answers, and
* the number of `.arb` pages read per document (per shard) must be
  independent of how many queries ride in the batch -- the paper's
  constant-scan guarantee, preserved under sharding.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Collection
from repro.plan import PlanCache
from tests.strategies import tmnf_programs, unranked_trees

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def corpora(min_docs: int = 1, max_docs: int = 5):
    return st.lists(unranked_trees(max_leaves=8), min_size=min_docs, max_size=max_docs)


def build_collection(directory, trees):
    collection = Collection.create(f"{directory}/corpus", plan_cache=PlanCache())
    for index, tree in enumerate(trees):
        collection.add_document(tree, doc_id=f"doc-{index}")
    return collection


@given(
    trees=corpora(),
    batch=st.lists(tmnf_programs(), min_size=1, max_size=3),
    n_workers=st.sampled_from((1, 2)),
)
@settings(max_examples=25, **COMMON_SETTINGS)
def test_parallel_equals_union_of_sequential_queries(trees, batch, n_workers):
    with tempfile.TemporaryDirectory() as directory:
        collection = build_collection(directory, trees)
        result = collection.query_many(batch, n_workers=n_workers)
        assert len(result) == len(trees)
        for index, program in enumerate(batch):
            predicate = program.query_predicates[0]
            for doc_id in collection.doc_ids:
                database = collection.open_database(doc_id)
                sequential = database.query(program, engine="disk")
                document = result.document(doc_id)
                assert (
                    document.results[index].selected[predicate]
                    == sequential.selected[predicate]
                )
                database.close()


@given(
    trees=corpora(min_docs=2, max_docs=4),
    batch=st.lists(tmnf_programs(), min_size=2, max_size=4),
)
@settings(max_examples=15, **COMMON_SETTINGS)
def test_per_shard_pages_read_independent_of_batch_size(trees, batch):
    with tempfile.TemporaryDirectory() as directory:
        collection = build_collection(directory, trees)
        single = collection.query_many(batch[:1], engine="disk", n_workers=2)
        full = collection.query_many(batch, engine="disk", n_workers=2)
        for doc_id in collection.doc_ids:
            one, many = single.document(doc_id), full.document(doc_id)
            # Each document is scanned exactly twice, whatever k is; only the
            # composite state file grows with the batch.
            assert one.arb_io.pages_read == many.arb_io.pages_read
            assert one.arb_io.bytes_read == many.arb_io.bytes_read
            assert one.arb_io.seeks == many.arb_io.seeks == 2
        assert full.arb_io.seeks == 2 * len(trees)


@given(trees=corpora(min_docs=2, max_docs=4), program=tmnf_programs())
@settings(max_examples=10, **COMMON_SETTINGS)
def test_manifest_order_is_preserved_whatever_the_sharding(trees, program):
    with tempfile.TemporaryDirectory() as directory:
        collection = build_collection(directory, trees)
        for n_workers in (1, 2, len(trees)):
            result = collection.query(program, n_workers=n_workers)
            assert [doc.doc_id for doc in result] == collection.doc_ids
