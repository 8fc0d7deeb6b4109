"""The Arb secondary-storage model: .arb databases, linear scans, updates."""

from repro.storage.bufferpool import BufferPool, BufferPoolStats, default_buffer_pool
from repro.storage.build import BuildStatistics, DatabaseBuilder, build_database
from repro.storage.database import ArbDatabase
from repro.storage.generations import (
    GenerationPointer,
    list_generations,
    prune_generations,
    read_pointer,
    resolve_generation,
)
from repro.storage.labels import LabelTable
from repro.storage.paging import IOStatistics, PagedReader, PagedWriter, PagerConfig
from repro.storage.records import DEFAULT_RECORD_SIZE, NodeRecord, decode_node, encode_node
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    UpdateResult,
    UpdateStatistics,
    apply_many,
    apply_to_tree,
    apply_update,
)

__all__ = [
    "ArbDatabase",
    "BufferPool",
    "BufferPoolStats",
    "default_buffer_pool",
    "BuildStatistics",
    "DatabaseBuilder",
    "build_database",
    "LabelTable",
    "IOStatistics",
    "PagedReader",
    "PagedWriter",
    "PagerConfig",
    "NodeRecord",
    "encode_node",
    "decode_node",
    "DEFAULT_RECORD_SIZE",
    "GenerationPointer",
    "read_pointer",
    "resolve_generation",
    "list_generations",
    "prune_generations",
    "Relabel",
    "DeleteSubtree",
    "InsertSubtree",
    "UpdateResult",
    "UpdateStatistics",
    "apply_many",
    "apply_update",
    "apply_to_tree",
]
