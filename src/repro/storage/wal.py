"""The per-base write-ahead log of the commit protocol.

Every commit (:func:`repro.storage.update.apply_many`; a single
``apply_update`` is a group of one) spends its fsync budget -- at most two
data fsyncs plus one pointer swap for the whole group -- by making only
two things durable before the swap: this log and the final spliced
``.arb``.  The log is a single checksummed record per
base path (``<base>.wal``) describing the *intent* of the in-flight group:
which pointer state it started from, which counter it commits to, and the
operations themselves in a replayable structural form (XML sources are
parsed **before** logging, so replay can never disagree with the original
about parsing).  The record is written and fsynced before any generation
file, and truncated after the pointer swap lands.

Recovery (:func:`recover_base`, hooked into every database open and every
apply) reads the record and compares it with the live pointer:

* ``base_counter == pointer.counter`` -- the crash hit before the swap.
  The group is **replayed**: the same deterministic compile-and-splice
  rebuilds the target generation from the (untouched) base generation and
  the swap is retried.  Queued operations survive the crash.  (A replay that turns
  out to be invalid against the base is discarded like a torn record: the
  live writer would have rejected that group whole.)
* ``target_counter <= pointer.counter`` -- the swap landed (or a later
  writer moved on).  The group's ``.lab``/``.meta`` were written without
  their own fsyncs; if a power loss tore them, they are rebuilt from the
  copy embedded in the committed pointer payload
  (:func:`repro.storage.generations.write_pointer`'s ``sidecar``).  The
  log is then discarded.
* anything else (torn record, bad checksum, foreign counter) -- the log
  is discarded; the pointer state stands.

One record, not an append log: writers of one base are serialised by
:func:`repro.storage.generations.exclusive_writer`, and a group is the unit
of both commit and replay, so there is never more than one in-flight group
per base.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib

from repro.errors import StorageError
from repro.storage.durability import (
    count_wal_append,
    count_wal_replay,
    fault_point,
    fsync_file,
)
from repro.storage.generations import (
    atomic_write_text,
    exclusive_writer,
    generation_base,
    logical_base_of,
    read_pointer,
    read_pointer_payload,
    resolve_logical_base,
)
from repro.storage.ops import DeleteSubtree, InsertSubtree, Relabel, materialize_op
from repro.tree.unranked import UnrankedNode, UnrankedTree

__all__ = [
    "WAL_SUFFIX",
    "WAL_VERSION",
    "append_group",
    "clear_wal",
    "deserialize_op",
    "frame_record",
    "has_pending",
    "parse_record",
    "payload_to_tree",
    "read_group",
    "recover_base",
    "serialize_op",
    "tree_to_payload",
    "wal_path",
]

#: Suffix of the log file, next to the ``.gen`` pointer it guards.
WAL_SUFFIX = ".wal"

#: Version of the JSON payload schema inside the framed record.
WAL_VERSION = 1

_MAGIC = b"ARBW"
_FRAME = struct.Struct(">II")  # payload length, crc32(payload)

#: Re-entrancy guard: while a thread recovers or replays, the database
#: opens it performs internally must not try to recover again (the writer
#: lock is not re-entrant, and the log legitimately still holds the record
#: being replayed).
_LOCAL = threading.local()


def wal_path(base_path: str) -> str:
    """The write-ahead log of ``base_path`` (``<base>.wal``)."""
    return base_path + WAL_SUFFIX


# ---------------------------------------------------------------------- #
# Operation (de)serialisation
# ---------------------------------------------------------------------- #


def tree_to_payload(tree: UnrankedTree) -> dict:
    """An :class:`UnrankedTree` as plain JSON-able structure (iterative)."""
    root = {"label": tree.root.label, "text": bool(tree.root.is_text), "children": []}
    stack: list[tuple[UnrankedNode, dict]] = [(tree.root, root)]
    while stack:
        node, mirror = stack.pop()
        for child in node.children:
            entry = {"label": child.label, "text": bool(child.is_text), "children": []}
            mirror["children"].append(entry)
            stack.append((child, entry))
    return root


def payload_to_tree(payload: dict) -> UnrankedTree:
    """The inverse of :func:`tree_to_payload` (iterative)."""
    root = UnrankedNode(str(payload["label"]), is_text=bool(payload.get("text")))
    stack: list[tuple[dict, UnrankedNode]] = [(payload, root)]
    while stack:
        source, mirror = stack.pop()
        for child in source.get("children", ()):
            node = UnrankedNode(str(child["label"]), is_text=bool(child.get("text")))
            mirror.children.append(node)
            stack.append((child, node))
    return UnrankedTree(root)


def serialize_op(op) -> dict:
    """One update operation as a replayable JSON record.

    Insert sources are logged as structural trees, never XML text: the
    caller parses the source exactly once (with its own ``text_mode``), so
    replay re-encodes the same nodes the original apply would have.
    """
    if isinstance(op, Relabel):
        return {
            "op": "relabel",
            "node": op.node,
            "label": op.label,
            "is_text": bool(op.is_text),
        }
    if isinstance(op, DeleteSubtree):
        return {"op": "delete", "node": op.node}
    if isinstance(op, InsertSubtree):
        return {
            "op": "insert",
            "parent": op.parent,
            "position": op.position,
            "tree": tree_to_payload(materialize_op(op).source),
        }
    raise StorageError(f"unknown update operation: {op!r}")


def deserialize_op(payload: dict):
    """The operation object a logged record describes."""
    kind = payload.get("op")
    if kind == "relabel":
        return Relabel(
            node=int(payload["node"]),
            label=str(payload["label"]),
            is_text=bool(payload.get("is_text")),
        )
    if kind == "delete":
        return DeleteSubtree(node=int(payload["node"]))
    if kind == "insert":
        position = payload.get("position")
        return InsertSubtree(
            parent=int(payload["parent"]),
            source=payload_to_tree(payload["tree"]),
            position=None if position is None else int(position),
        )
    raise StorageError(f"unknown logged operation kind: {kind!r}")


# ---------------------------------------------------------------------- #
# The framed record
# ---------------------------------------------------------------------- #


def frame_record(data: bytes) -> bytes:
    """Wrap ``data`` in the checksummed ARBW frame (magic, length, crc32).

    The frame is what makes a record self-validating: a reader that gets a
    truncated or bit-flipped copy detects it from the length/checksum and
    treats the record as absent.  The WAL uses it for the group-intent
    record on disk; the replication channel uses the same frame around
    every shipped generation file, so a torn transfer can never be
    installed on a replica.
    """
    return _MAGIC + _FRAME.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


def parse_record(raw: bytes) -> bytes | None:
    """The payload of one ARBW frame; ``None`` for anything torn or alien.

    Exactly the validation :func:`read_group` applies to the on-disk log:
    magic, declared length and crc32 must all check out, otherwise the
    record never becomes visible to the caller.
    """
    header_size = len(_MAGIC) + _FRAME.size
    if len(raw) < header_size or raw[: len(_MAGIC)] != _MAGIC:
        return None
    length, checksum = _FRAME.unpack_from(raw, len(_MAGIC))
    data = raw[header_size : header_size + length]
    if len(data) != length or zlib.crc32(data) & 0xFFFFFFFF != checksum:
        return None
    return data


def append_group(
    base_path: str,
    *,
    base_generation: int,
    base_counter: int,
    target_counter: int,
    page_size: int,
    ops,
) -> None:
    """Write and fsync the group's intent record (the commit's first fsync).

    Fault points: ``"wal-append"`` fires after the record bytes are written
    but before the fsync (a crash there leaves a possibly-torn record the
    checksum rejects -- the group is discarded, exactly as if it never
    started); ``"wal-synced"`` fires after the fsync (a crash there replays
    the group on the next open).
    """
    payload = {
        "version": WAL_VERSION,
        "base_generation": base_generation,
        "base_counter": base_counter,
        "target_counter": target_counter,
        "page_size": page_size,
        "ops": [serialize_op(op) for op in ops],
    }
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    with open(wal_path(base_path), "wb") as handle:
        handle.write(frame_record(data))
        fault_point("wal-append")
        fsync_file(handle)
    count_wal_append()
    fault_point("wal-synced")


def read_group(base_path: str) -> dict | None:
    """The pending group record of ``base_path``; ``None`` when there is no
    usable record (missing, empty, torn, checksummed wrong, alien version).

    A torn record is *by design* equivalent to no record: the group was not
    yet durable, so discarding it keeps exactly the pre-group state.
    """
    try:
        with open(wal_path(base_path), "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    data = parse_record(raw)
    if data is None:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != WAL_VERSION:
        return None
    try:
        int(payload["base_generation"])
        int(payload["base_counter"])
        int(payload["target_counter"])
        int(payload["page_size"])
        if not isinstance(payload["ops"], list):
            return None
    except (KeyError, TypeError, ValueError):
        return None
    return payload


def has_pending(base_path: str) -> bool:
    """Whether a (possibly torn) log record exists -- one ``stat``, no read."""
    try:
        return os.path.getsize(wal_path(base_path)) > 0
    except OSError:
        return False


def clear_wal(base_path: str) -> None:
    """Truncate the log (the group is committed or discarded).

    No fsync: if a power loss resurrects the record, recovery re-reads it,
    finds its target already committed (or stale) and truncates again --
    truncation only ever races with idempotent work.
    """
    path = wal_path(base_path)
    if not os.path.exists(path):
        return
    try:
        with open(path, "wb"):
            pass
    except OSError:  # pragma: no cover - unwritable log directory
        pass


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def recovery_active() -> bool:
    """Whether this thread is inside recovery/replay (opens must not recurse)."""
    return getattr(_LOCAL, "active", 0) > 0


def recover_base(base_path: str) -> bool:
    """Recover ``base_path`` if its log holds a pending group; returns whether
    anything was replayed or repaired.

    Safe to call from any open path: it stats the log first (the common
    no-log case costs one ``stat``), takes the writer lock only when there
    is something to look at, and never recurses into itself from the
    database opens a replay performs.
    """
    if recovery_active():
        return False
    base_path = resolve_logical_base(logical_base_of(base_path))
    if not has_pending(base_path):
        return False
    with exclusive_writer(base_path):
        return recover_locked(base_path)


def recover_locked(base_path: str) -> bool:
    """:func:`recover_base` for callers already holding the writer lock."""
    if not has_pending(base_path):
        return False
    _LOCAL.active = getattr(_LOCAL, "active", 0) + 1
    try:
        record = read_group(base_path)
        if record is None:
            clear_wal(base_path)
            return False
        pointer = read_pointer(base_path)
        if (
            int(record["base_counter"]) == pointer.counter
            and int(record["base_generation"]) == pointer.generation
        ):
            count_wal_replay()
            try:
                _replay_group(base_path, record)
            except StorageError:
                # The logged ops are invalid against the base: the crashed
                # writer would have rejected the group the same way, had it
                # lived to compile it.  That error was the writer's to get;
                # the open that happened to find the record must not fail.
                clear_wal(base_path)
                return False
            clear_wal(base_path)
            return True
        if int(record["target_counter"]) <= pointer.counter:
            repaired = _repair_committed(base_path, pointer)
            clear_wal(base_path)
            return repaired
        # A record from a counter state that never existed here (copied
        # files, foreign writer): not ours to replay.
        clear_wal(base_path)
        return False
    finally:
        _LOCAL.active -= 1


def _replay_group(base_path: str, record: dict) -> None:
    """Re-run a durable-but-unswapped group from its logged intent.

    The commit is deterministic in (base generation bytes, ops), so
    the replay produces the generation the crashed writer was building --
    any partial files it left behind are simply overwritten.  A replay that
    *fails* (e.g. the logged ops were invalid against the base) discards
    the log: a group either commits whole or leaves no trace.
    """
    from repro.storage import update as update_module  # it imports this module

    ops = [deserialize_op(op) for op in record["ops"]]
    update_module._commit_locked(
        base_path,
        ops,
        page_size=int(record["page_size"]),
        expected_generation=int(record["base_generation"]),
        expected_counter=int(record["base_counter"]),
        replaying=True,
    )


def _repair_committed(base_path: str, pointer) -> bool:
    """Rebuild torn ``.lab``/``.meta`` of the committed generation.

    The group wrote them without fsyncs; the authoritative copy rides in
    the committed pointer's ``sidecar`` payload, which *was* fsynced as
    part of the swap.  Missing or inconsistent sidecar files are rewritten
    from it; a payload without a sidecar (oversized label tables, commits
    by older versions) means the files were fsynced eagerly and need no
    repair.
    """
    gen_base = generation_base(base_path, pointer.generation)
    payload = read_pointer_payload(base_path) or {}
    sidecar = payload.get("sidecar")
    if not isinstance(sidecar, dict):
        return False
    meta = sidecar.get("meta")
    labels_text = sidecar.get("labels")
    repaired = False
    if isinstance(meta, dict) and not _meta_intact(gen_base, meta):
        atomic_write_text(gen_base + ".meta", json.dumps(meta))
        repaired = True
    if isinstance(labels_text, str) and not _labels_intact(gen_base, labels_text):
        atomic_write_text(gen_base + ".lab", labels_text)
        repaired = True
    return repaired


def _meta_intact(gen_base: str, expected: dict) -> bool:
    try:
        with open(gen_base + ".meta", "r", encoding="utf-8") as handle:
            return json.load(handle) == expected
    except (OSError, ValueError):
        return False


def _labels_intact(gen_base: str, expected: str) -> bool:
    try:
        with open(gen_base + ".lab", "r", encoding="utf-8") as handle:
            return handle.read() == expected
    except OSError:
        return False
