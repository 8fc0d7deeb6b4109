"""The sharded document-collection layer: many `.arb` databases, one query.

A :class:`~repro.collection.collection.Collection` manages a corpus of
on-disk Arb databases under one root directory (a JSON manifest records
document ids, sizes and label counts), shards the documents across worker processes (one shard runs in the
calling thread) and evaluates single queries or lockstep batches over every
document, merging
the per-document answers and aggregating evaluation and I/O statistics.

The paper's secondary-storage guarantee survives sharding unchanged: every
document's data file is read with a constant number of linear scans per
batch, so total corpus I/O is linear in corpus size and independent of the
number of queries evaluated together -- which the per-document
:class:`~repro.collection.result.DocumentQueryResult` counters let tests
verify shard by shard.
"""

from repro.collection.collection import Collection
from repro.collection.executor import partition_documents
from repro.collection.manifest import CollectionManifest, DocumentEntry
from repro.collection.result import CollectionQueryResult, DocumentQueryResult

__all__ = [
    "Collection",
    "CollectionManifest",
    "DocumentEntry",
    "CollectionQueryResult",
    "DocumentQueryResult",
    "partition_documents",
]
