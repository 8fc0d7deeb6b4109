"""On-disk record formats: `.arb` node records and `.evt` SAX-event records.

`.arb` node records (Section 5)
    Each node is a fixed-size field of ``k`` bytes (default ``k = 2``).  The
    two highest bits say whether the node has a first and/or second (binary)
    child; the remaining ``8k - 2`` bits hold the label index.  Nodes are
    stored in pre-order.

`.evt` event records
    The temporary event file written during database creation holds two
    fixed-size events per node (a *begin* and an *end* event); the highest
    bit distinguishes begin from end and the remaining bits hold the label
    index.  The paper uses two bytes per event; we allow the same ``k`` as the
    node records so larger label spaces remain possible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import StorageFormatError

__all__ = [
    "DEFAULT_RECORD_SIZE",
    "NodeRecord",
    "encode_node",
    "decode_node",
    "decode_node_value",
    "encode_event",
    "decode_event",
    "decode_event_value",
    "max_label_index",
    "flag_masks",
    "record_struct",
    "node_record_table",
]

DEFAULT_RECORD_SIZE = 2

#: Big-endian unsigned formats for the record sizes that map onto a single
#: struct code.  Scans over these sizes decode whole pages with one
#: ``iter_unpack`` call; other sizes fall back to per-record decoding.
_RECORD_STRUCTS = {
    1: struct.Struct(">B"),
    2: struct.Struct(">H"),
    4: struct.Struct(">I"),
    8: struct.Struct(">Q"),
}

#: Shared decoded-record memo tables, one per record size.  A record value
#: space is tiny (distinct ``(label, flags)`` combinations), so interning the
#: immutable :class:`NodeRecord` per raw value turns per-record decoding into
#: a dict hit.  Concurrent scans may race on a missing entry; both sides
#: compute an equal record, so last-write-wins is harmless.
_NODE_TABLES: dict[int, dict[int, "NodeRecord"]] = {}


def record_struct(record_size: int) -> struct.Struct | None:
    """The single-code struct for ``record_size`` bytes, or ``None``."""
    return _RECORD_STRUCTS.get(record_size)


def node_record_table(record_size: int) -> dict[int, "NodeRecord"]:
    """The shared raw-value -> :class:`NodeRecord` memo for ``record_size``."""
    table = _NODE_TABLES.get(record_size)
    if table is None:
        table = _NODE_TABLES.setdefault(record_size, {})
    return table


def max_label_index(record_size: int = DEFAULT_RECORD_SIZE) -> int:
    """Largest label index representable in a node record of ``record_size`` bytes."""
    return (1 << (8 * record_size - 2)) - 1


def flag_masks(record_size: int = DEFAULT_RECORD_SIZE) -> tuple[int, int]:
    """The ``(has_first_child, has_second_child)`` bit masks of a node record
    value: its two highest bits.  Everything below the second is the label."""
    first_bit = 1 << (8 * record_size - 1)
    return first_bit, first_bit >> 1


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """A decoded `.arb` node record."""

    label_index: int
    has_first_child: bool
    has_second_child: bool


def encode_node(
    label_index: int,
    has_first_child: bool,
    has_second_child: bool,
    record_size: int = DEFAULT_RECORD_SIZE,
) -> bytes:
    """Encode one node record (big-endian, flags in the two highest bits)."""
    limit = max_label_index(record_size)
    if not 0 <= label_index <= limit:
        raise StorageFormatError(
            f"label index {label_index} out of range for k={record_size} (max {limit})"
        )
    value = label_index
    if has_first_child:
        value |= 1 << (8 * record_size - 1)
    if has_second_child:
        value |= 1 << (8 * record_size - 2)
    return value.to_bytes(record_size, "big")


def decode_node_value(value: int, record_size: int = DEFAULT_RECORD_SIZE) -> NodeRecord:
    """Decode one node record already read as an unsigned big-endian int."""
    first_bit, second_bit = flag_masks(record_size)
    return NodeRecord(
        label_index=value & (second_bit - 1),
        has_first_child=bool(value & first_bit),
        has_second_child=bool(value & second_bit),
    )


def decode_node(data: bytes, record_size: int = DEFAULT_RECORD_SIZE) -> NodeRecord:
    """Decode one node record produced by :func:`encode_node`."""
    if len(data) != record_size:
        raise StorageFormatError(f"expected {record_size} bytes, got {len(data)}")
    return decode_node_value(int.from_bytes(data, "big"), record_size)


def encode_event(label_index: int, is_end: bool, record_size: int = DEFAULT_RECORD_SIZE) -> bytes:
    """Encode one SAX event record (highest bit: 1 = end event)."""
    limit = (1 << (8 * record_size - 1)) - 1
    if not 0 <= label_index <= limit:
        raise StorageFormatError(
            f"label index {label_index} out of range for event records of {record_size} bytes"
        )
    value = label_index | ((1 << (8 * record_size - 1)) if is_end else 0)
    return value.to_bytes(record_size, "big")


def decode_event_value(value: int, record_size: int = DEFAULT_RECORD_SIZE) -> tuple[int, bool]:
    """Decode an event record already read as an unsigned big-endian int."""
    end_bit = 1 << (8 * record_size - 1)
    return value & (end_bit - 1), bool(value & end_bit)


def decode_event(data: bytes, record_size: int = DEFAULT_RECORD_SIZE) -> tuple[int, bool]:
    """Decode an event record; returns ``(label_index, is_end)``."""
    if len(data) != record_size:
        raise StorageFormatError(f"expected {record_size} bytes, got {len(data)}")
    return decode_event_value(int.from_bytes(data, "big"), record_size)
