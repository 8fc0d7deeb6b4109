"""Copy-on-write updates of `.arb` databases with snapshot-isolated readers.

The paper treats the `.arb` file as a static artifact: build once, scan
twice per query.  This module makes documents *mutable* without giving up
any of that story.  A **commit** -- a group of one or more operations, each
relabelling a node, deleting a subtree or inserting one -- produces a **new
generation** of the database beside the old one and atomically swaps the
generation pointer (:mod:`repro.storage.generations`):

* readers that already resolved the pointer keep scanning the immutable old
  generation (their snapshot) to the end, untouched by the swap;
* readers that open after the swap see the new generation, with every
  operation of the group applied -- a group is exactly as visible, and
  exactly as atomic, as one update.

There is one commit protocol, whatever the size of the group
(:func:`apply_update` is :func:`apply_many` with a group of one); the crash
suite can kill it between any two of these steps (:data:`FAULT_POINTS`):

1. analyse the current generation (cached) and compile the **whole group**
   against it, each operation against the state its predecessor left -- a
   group with a bad operation anywhere is refused here, before anything is
   logged or written (:mod:`repro.storage.structure`);
2. append the group's *intent* to the per-base write-ahead log and fsync it
   (:mod:`repro.storage.wal`) -- data fsync 1 of 2;
3. splice the new `.arb` out of the old one in one left-to-right pass,
   whatever the group's size, and fsync it (:mod:`repro.storage.splice`) --
   data fsync 2 of 2;
4. write `.lab`, `.meta` and `.idx` *without* fsyncs: `.lab` and `.meta` ride
   in the pointer payload, which the swap makes durable anyway, and the
   `.idx` is checksummed, so a torn one only costs scan speed;
5. fsync the directory, then swap the pointer (temp file + fsync + rename +
   directory fsync, counted as one *pointer swap*), then truncate the log.

So a commit of any size costs **at most 2 data fsyncs, 1 WAL append and 1
pointer swap** (a label table too big for the pointer payload pays two
more), reads the old `.arb` at most twice (the splice, and before it the
analysis scan unless an earlier commit left the structure behind) and
writes nothing but the new generation's files, the log and the pointer.  A
crash before the log is durable means the commit never happened: the old
generation stays current and byte-identical.  A crash after that rolls the
commit *forward*: the next open (or the next writer) replays the logged
group from the untouched old generation and lands on the same bytes the
crashed writer was producing.  A crash after the swap is a committed state;
recovery only rebuilds torn `.lab`/`.meta` from the pointer payload and
drops the spent log.  A commit that is *refused* (bad node id, empty result,
stale expectation) is refused before its log record or any file is written;
one that fails later (a full disk) removes both before raising -- all or
nothing.  ``REPRO_UPDATE_FAULT`` kills the process at any named stage so
the crash suite can check each of these sentences.

Node ids in update operations are pre-order indexes of the state the
operation is applied to -- the same ids query results report; inside a
group, operation ``i`` addresses the state operation ``i - 1`` produced.
The pointer's change counter advances by one per *operation* and the new
generation takes the counter's value as its number, so one group of N and
N groups of one leave the same counter and byte-identical files.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import StorageError
from repro.storage import wal
from repro.storage.database import ArbDatabase
from repro.storage.durability import FAULT_ENV, FAULT_EXIT_CODE, fault_point
from repro.storage.generations import (
    GenerationPointer,
    exclusive_writer,
    fsync_directory,
    generation_base,
    prune_generations,
    read_pointer,
    remove_generation_files,
    resolve_logical_base,
    write_metadata,
    write_pointer,
)
from repro.storage.labels import FIRST_TAG_INDEX
from repro.storage.ops import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    UpdateOp,
    apply_to_tree,
    materialize_op,
    op_from_spec,
)
from repro.storage.paging import DEFAULT_PAGE_SIZE
from repro.storage.splice import (
    UpdateStatistics,
    _carry_summaries,
    _fold_edits,
    _load_summaries,
    _splice,
    _write_index,
)
from repro.storage.structure import _analyse, _compile_op, structure_cache

__all__ = [
    "DeleteSubtree",
    "InsertSubtree",
    "Relabel",
    "UpdateResult",
    "UpdateStatistics",
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "FAULT_POINTS",
    "GROUP_FAULT_POINTS",
    "apply_many",
    "apply_to_tree",
    "apply_update",
    "check_retain",
    "fault_point",
    "op_from_spec",
]


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #


@dataclass
class UpdateResult:
    """Outcome of one commit: where the database moved to.

    A commit of ``n_ops`` operations lands as a single generation:
    ``counter`` advanced by ``n_ops`` in one pointer swap.  Every rider of a
    coalesced write batch resolves with the same instance.
    """

    base_path: str
    old_generation: int
    new_generation: int
    counter: int
    n_nodes: int
    element_nodes: int = 0
    char_nodes: int = 0
    n_tags: int = 0
    arb_bytes: int = 0
    n_ops: int = 1
    #: Whether this commit was a WAL replay of a crashed one.
    replayed: bool = False
    statistics: UpdateStatistics = field(default_factory=UpdateStatistics)


# ---------------------------------------------------------------------- #
# Crash-fault injection
# ---------------------------------------------------------------------- #

# ``FAULT_ENV`` / ``FAULT_EXIT_CODE`` / ``fault_point`` themselves live in
# :mod:`repro.storage.durability` now (the manifest and build paths inject
# faults too) and are re-exported above for the crash suites, which have
# always imported them from this module.

#: The stages a commit can be killed at, in execution order.  Up to and
#: including ``"wal-append"`` a crash discards the commit; from
#: ``"wal-synced"`` on, the next open rolls it forward.
FAULT_POINTS = (
    "analysis",  # base analysed, whole group compiled; nothing written yet
    "wal-append",  # WAL record bytes written, fsync not yet issued
    "wal-synced",  # WAL durable; no generation file written yet
    "mid-arb",  # first bytes of the splice written (torn .arb)
    "after-arb",  # new .arb complete and fsynced
    "mid-idx",  # .idx sidecar header written, body not yet (torn index)
    "after-files",  # .lab, .meta and .idx written too (unsynced)
    "pointer-tmp",  # pointer temp file written, swap not yet performed
    "after-swap",  # pointer atomically replaced; WAL not yet truncated
)

#: The write-ahead-log stages alone (fired inside :mod:`repro.storage.wal`).
GROUP_FAULT_POINTS = ("wal-append", "wal-synced")


# ---------------------------------------------------------------------- #
# Applying updates
# ---------------------------------------------------------------------- #

#: Pointer payloads stay small control files; a label table bigger than this
#: is fsynced eagerly (with `.meta`) instead of riding in the pointer.
_SIDECAR_LIMIT = 64 * 1024


def check_retain(retain_generations: object) -> None:
    """Refuse a ``retain_generations`` that :func:`prune_generations` would
    refuse: ``None`` (keep everything) or an ``int >= 1`` pass.  Public so
    that a write entry which queues updates can refuse at submit time."""
    if retain_generations is not None and (type(retain_generations) is not int or retain_generations < 1):
        raise StorageError(f"retain_generations must be None or an integer >= 1, got {retain_generations!r}")


def apply_many(
    base_path: str,
    ops: Sequence[UpdateOp],
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    retain_generations: int | None = None,
    expected_generation: int | None = None,
    expected_counter: int | None = None,
) -> UpdateResult:
    """Commit ``ops`` as **one group**: one generation, one pointer swap.

    Sequential semantics (each operation's node ids address the state the
    previous one produced, exactly like committing them one by one) at the
    cost of one commit: however many operations ride in the group, durability is
    two data fsyncs -- the WAL record and the final spliced ``.arb`` --
    plus one pointer swap (the protocol and its crash semantics are the
    module docstring's).  The group is atomic both ways: readers see all of
    it or none of it, and a group with a bad operation anywhere (bad node
    id, empty result) is refused before anything is logged or written.

    The counter advances by ``len(ops)`` in the single swap, so a group
    leaves the same counter state sequential applies would -- optimistic
    concurrency across mixed writers keeps working unchanged.

    ``retain_generations`` optionally prunes history after a successful
    swap, keeping the new generation plus ``retain_generations - 1``
    predecessors (generation 0 is always kept).  The default keeps
    everything, which is what long-running pinned readers want.  A value
    pruning would refuse is refused here, before the lock and the log: a
    commit must never land and *then* raise.

    Writers of one base path are serialised (threads via a per-base lock,
    processes via an advisory ``flock`` on ``<base>.lock``); readers are
    never blocked.  ``expected_generation`` is the optimistic-concurrency
    guard: the operations' node ids were taken from that generation, and if
    another writer moved the pointer meanwhile the ids may name different
    nodes -- the commit is then refused with a conflict error instead of
    silently mutating the wrong subtree.  ``expected_counter`` is the
    stronger guard over the pointer's change counter, which also moves on
    an in-place *rebuild* (a rebuild resets the generation to 0, so two
    states can share a generation number but never a counter).  ``None``
    applies unconditionally against whatever is current (the single-writer
    CLI convention).
    """
    # Agree with ArbDatabase.open on what governs a suffixed path: updating
    # through "doc.g3" must advance "doc", never fork a "doc.g3" lineage.
    base_path = resolve_logical_base(base_path.removesuffix(".arb"))
    ops = list(ops)
    if not ops:
        raise StorageError("apply_many needs at least one operation")
    check_retain(retain_generations)
    with exclusive_writer(base_path):
        # A crashed commit may have left a pending WAL record; finish (or
        # discard) it first, so this writer starts from a settled state.
        wal.recover_locked(base_path)
        result = _commit_locked(
            base_path,
            ops,
            page_size=page_size,
            expected_generation=expected_generation,
            expected_counter=expected_counter,
        )
        if retain_generations is not None:
            prune_generations(base_path, retain_generations)
        return result


def apply_update(base_path: str, update: UpdateOp, **options) -> UpdateResult:
    """Apply one update to the current generation of ``base_path``: a group
    of one, committed exactly as :func:`apply_many` commits any group (and
    taking :func:`apply_many`'s keyword options)."""
    return apply_many(base_path, [update], **options)


def _check_expected(
    base_path: str,
    pointer: GenerationPointer,
    expected_generation: int | None,
    expected_counter: int | None,
) -> None:
    """Refuse a commit whose node ids were taken from another state."""
    for what, expected, current in (
        ("generation", expected_generation, pointer.generation),
        ("change counter", expected_counter, pointer.counter),
    ):
        if expected is not None and current != expected:
            raise StorageError(
                f"{base_path}: concurrent update conflict -- expected {what} {expected} "
                f"but {current} is current (another update or rebuild landed); "
                f"node ids may be stale (refresh and retry)"
            )


def _commit_locked(
    base_path: str,
    ops: list[UpdateOp],
    *,
    page_size: int,
    expected_generation: int | None = None,
    expected_counter: int | None = None,
    replaying: bool = False,
) -> UpdateResult:
    """The one commit routine (writer lock held): every apply entry point
    and the WAL replay (``replaying=True``: the intent is already logged)
    end up here."""
    started = time.perf_counter()
    pointer = read_pointer(base_path)
    _check_expected(base_path, pointer, expected_generation, expected_counter)

    old_base = generation_base(base_path, pointer.generation)
    stats = UpdateStatistics()
    database = ArbDatabase.open(old_base, page_size=page_size)
    record_size = database.record_size
    old_arb = database.arb_path
    old_size = database.file_size()
    analysis = structure_cache.get(old_arb, database.creation_counter)
    if analysis is None:
        analysis = _analyse(database, stats.io)
        structure_cache.put(old_arb, database.creation_counter, analysis)
    else:
        stats.analysis_cache_hit = True
    labels = database.labels  # this open's own copy: the commit may add to it
    element_nodes = database.element_nodes
    char_nodes = database.char_nodes

    # The whole group compiles before anything is logged or written, each
    # operation against the state its predecessor left in a private copy of
    # the analysis: a group with a bad operation anywhere leaves no trace.
    ops = [materialize_op(op) for op in ops]
    structure = analysis.copy()
    plans = [_compile_op(op, structure, labels, record_size) for op in ops]
    edits = _fold_edits([plan.edits for plan in plans], old_size)
    element_nodes += sum(plan.element_delta for plan in plans)
    char_nodes += sum(plan.char_delta for plan in plans)
    n_nodes = structure.n
    n_ops = len(ops)
    new_counter = pointer.counter + n_ops
    new_generation = new_counter  # the counter doubles as the allocator
    new_base = generation_base(base_path, new_generation)
    fault_point("analysis")

    if not replaying:
        # Durable intent first (fsync #1): from here on, a crash anywhere
        # before the swap replays this exact group on the next open.
        wal.append_group(
            base_path,
            base_generation=pointer.generation,
            base_counter=pointer.counter,
            target_counter=new_counter,
            page_size=page_size,
            ops=ops,
        )

    try:
        # ---- the one splice, fsynced (fsync #2) ------------------------- #
        _splice(old_arb, new_base + ".arb", old_size, edits, stats, page_size)
        stats.records_reencoded = sum(len(replacement) for _, _, replacement in edits) // record_size
        fault_point("after-arb")

        # ---- unsynced sidecars: the pointer payload backs them up ------- #
        labels_text = labels.as_text()
        # A table too big to ride in the pointer pays two extra fsyncs
        # instead of growing the control file without bound.
        embed = len(labels_text) <= _SIDECAR_LIMIT
        labels.save(new_base + ".lab", fsync=not embed)
        meta_payload = write_metadata(
            new_base,
            n_nodes=n_nodes,
            record_size=record_size,
            element_nodes=element_nodes,
            char_nodes=char_nodes,
            n_tags=labels.n_tags,
            counter=new_counter,
            generation=new_generation,
            parent_generation=pointer.generation,
            fsync=not embed,
        )
        summaries = _load_summaries(old_base, old_size, record_size, page_size)
        _write_index(
            new_base,
            _carry_summaries(summaries, edits, old_size, page_size),
            structure,
            record_size=record_size,
            page_size=page_size,
            n_label_indices=FIRST_TAG_INDEX + labels.n_tags,
        )
        # The new files' *directory entries* must be durable before a durable
        # pointer can name them -- file-data fsyncs alone do not persist the
        # dirents on a power loss.
        fsync_directory(os.path.dirname(new_base) or ".")
        fault_point("after-files")

        # ---- the atomic swap (commits the whole group at once) ---------- #
        write_pointer(
            base_path,
            GenerationPointer(generation=new_generation, counter=new_counter),
            fault=fault_point,
            sidecar={"meta": meta_payload, "labels": labels_text} if embed else None,
        )
    except BaseException:
        # A clean failure rejects the group whole: no pointer moved, so
        # drop the intent record and any partial generation files.
        wal.clear_wal(base_path)
        remove_generation_files(base_path, new_generation)
        raise
    fault_point("after-swap")
    wal.clear_wal(base_path)

    # Whatever the operations were, the next commit on this base starts
    # from the structure they left behind instead of a rescan.
    structure_cache.put(new_base + ".arb", new_counter, structure)
    stats.seconds = time.perf_counter() - started
    return UpdateResult(
        base_path=base_path,
        old_generation=pointer.generation,
        new_generation=new_generation,
        counter=new_counter,
        n_nodes=n_nodes,
        element_nodes=element_nodes,
        char_nodes=char_nodes,
        n_tags=labels.n_tags,
        arb_bytes=n_nodes * record_size,
        n_ops=n_ops,
        replayed=replaying,
        statistics=stats,
    )
