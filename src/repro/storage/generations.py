"""Generation pointers: which on-disk files are *current* for a base path.

A plain database built by :mod:`repro.storage.build` is **generation 0**:
``<base>.arb`` / ``<base>.lab`` / ``<base>.meta``, exactly the layout the
paper describes.  A copy-on-write update (:mod:`repro.storage.update`) never
touches those files; it writes a complete new generation *beside* them --
``<base>.g<N>.arb`` / ``.g<N>.lab`` / ``.g<N>.meta`` -- and then atomically
swaps the small **pointer file** ``<base>.gen`` to name the new generation.
Readers resolve the pointer once, when they open, and from then on hold
paths into an immutable generation: a swap can never change the bytes under
an in-flight scan, which is what makes snapshot isolation free.

The pointer file is a one-line JSON document::

    {"generation": N, "counter": C}

``generation`` names the current generation (0 = the plain base files);
``counter`` increases monotonically across *every* rebuild and update of the
base path and never decreases, so it doubles as the allocator for new
generation numbers (a crashed, never-swapped attempt can only have used a
number that the retry safely overwrites) and, recorded in each generation's
``.meta`` as its *creation counter*, as the name of that generation's
content (:attr:`repro.storage.database.ArbDatabase.creation_counter`).  The
pointer is written with the classic temp-file + ``os.replace`` + directory
fsync protocol, so a reader sees either the old pointer or the new one --
never a torn file.

No pointer file means generation 0 with counter 0: every database built
before this module existed keeps working unchanged.
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass

try:  # POSIX advisory file locks for cross-process writer exclusion
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.errors import StorageError
from repro.storage.durability import (
    count_dir_fsync,
    count_pointer_swap,
    fault_point,
    fsync_file,
)

__all__ = [
    "GenerationPointer",
    "POINTER_SUFFIX",
    "atomic_write_bytes",
    "atomic_write_text",
    "exclusive_writer",
    "export_generation",
    "fsync_directory",
    "generation_base",
    "generation_of_base",
    "install_generation",
    "list_generations",
    "logical_base_of",
    "pointer_path",
    "read_pointer_payload",
    "resolve_logical_base",
    "prune_generations",
    "read_pointer",
    "remove_generation_files",
    "resolve_generation",
    "write_metadata",
    "write_pointer",
]

#: Suffix of the pointer file, next to the ``.arb`` it governs.
POINTER_SUFFIX = ".gen"

#: ``<base>.g<N>`` -- the base-path suffix of a non-zero generation.
_GENERATION_RE = re.compile(r"\.g(\d+)$")

#: Companion suffixes that make up one complete generation (the ``.idx``
#: page-summary sidecar is optional on read, but lives and dies with its
#: generation).
GENERATION_FILE_SUFFIXES = (".arb", ".lab", ".meta", ".idx")


@dataclass(frozen=True)
class GenerationPointer:
    """The decoded pointer file of one base path."""

    #: The current generation number (0 = the plain ``<base>.arb`` files).
    generation: int = 0
    #: Monotonic change counter across every build and update of the base.
    counter: int = 0


def pointer_path(base_path: str) -> str:
    """The pointer file governing ``base_path`` (``<base>.gen``)."""
    return base_path + POINTER_SUFFIX


def generation_base(base_path: str, generation: int) -> str:
    """The base path of ``generation`` (generation 0 is the plain base)."""
    if generation < 0:
        raise StorageError(f"generation numbers are non-negative, got {generation}")
    if generation == 0:
        return base_path
    return f"{base_path}.g{generation}"


def generation_of_base(base_path: str) -> int:
    """The generation number encoded in ``base_path`` (0 for a plain base)."""
    match = _GENERATION_RE.search(base_path)
    return int(match.group(1)) if match else 0


def logical_base_of(path: str) -> str:
    """The user-facing base path behind ``path``.

    Strips a trailing ``.arb`` (so file paths work too) and then a
    generation suffix: ``doc.g3.arb`` and ``doc.arb`` both resolve to
    ``doc``.  This is how a physical file finds the pointer that governs it.
    """
    if path.endswith(".arb"):
        path = path[: -len(".arb")]
    return _GENERATION_RE.sub("", path)


def resolve_logical_base(base_path: str) -> str:
    """``base_path``'s governing base, checking the filesystem.

    A ``doc.g3`` path is the physical base of generation 3 of ``doc`` --
    *if* a base ``doc`` actually exists.  A database the user simply named
    ``snapshot.g2`` (no parent base on disk) is its own logical base; every
    path-interpreting entry point (open, apply) must agree on this, or an
    update through a suffixed path would fork a private lineage.
    """
    logical = logical_base_of(base_path)
    if logical != base_path and (
        os.path.exists(logical + ".arb") or os.path.exists(pointer_path(logical))
    ):
        return logical
    return base_path


def read_pointer(base_path: str) -> GenerationPointer:
    """The pointer of ``base_path``; a default (0, 0) pointer when absent.

    A malformed pointer file is a real storage error: the swap protocol can
    only ever leave the old pointer or the new one, so torn JSON here means
    something outside the library touched the file.
    """
    path = pointer_path(base_path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return GenerationPointer()
    except (OSError, ValueError) as error:
        raise StorageError(f"unreadable generation pointer {path}: {error}") from error
    try:
        return GenerationPointer(
            generation=int(payload["generation"]), counter=int(payload["counter"])
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(f"malformed generation pointer {path}: {payload!r}") from error


def write_pointer(
    base_path: str,
    pointer: GenerationPointer,
    *,
    fault=None,
    sidecar: dict | None = None,
) -> str:
    """Atomically install ``pointer`` as the current pointer of ``base_path``.

    Temp file + fsync + ``os.replace`` + directory fsync: a concurrent
    reader (or a reader after a crash at any instant) sees exactly one of
    the two pointer states.  ``fault`` is the update subsystem's
    crash-injection hook: called with ``"pointer-tmp"`` between writing the
    temp file and the atomic replace (see
    :func:`repro.storage.durability.fault_point`).

    ``sidecar`` optionally embeds the new generation's metadata and label
    table in the pointer payload itself.  The temp file is fsynced as part
    of the swap anyway, so whatever rides in it becomes durable for free --
    which is how the group-commit pipeline keeps its fsync budget: `.lab`
    and `.meta` are written without their own fsyncs and, should a crash
    tear them, are rebuilt from the committed pointer's payload on the next
    open (see :mod:`repro.storage.wal`).  Readers that only want the
    generation ignore the extra key.
    """
    path = pointer_path(base_path)
    temp_path = path + ".tmp"
    payload: dict = {"generation": pointer.generation, "counter": pointer.counter}
    if sidecar is not None:
        payload["sidecar"] = sidecar
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    if fault is not None:
        fault("pointer-tmp")
    os.replace(temp_path, path)
    _fsync_directory(os.path.dirname(path) or ".")
    count_pointer_swap()
    return path


def read_pointer_payload(base_path: str) -> dict | None:
    """The raw pointer payload of ``base_path`` (``None`` when absent).

    Unlike :func:`read_pointer` this keeps every key -- in particular the
    optional embedded ``sidecar`` the group-commit pipeline stores, which
    recovery uses to rebuild torn `.lab` / `.meta` files of a committed
    generation.
    """
    path = pointer_path(base_path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise StorageError(f"unreadable generation pointer {path}: {error}") from error


def atomic_write_text(
    path: str,
    text: str,
    *,
    fault_name: str | None = None,
) -> str:
    """Write ``text`` to ``path`` with the full temp+fsync+replace protocol.

    The same discipline :func:`write_pointer` uses, packaged for the other
    small control files of the system (the collection manifest, server
    ready files): write a temp file, fsync it, ``os.replace`` it over the
    destination, fsync the directory.  A reader -- concurrent or after a
    crash at any instant -- sees either the complete old content or the
    complete new content, never an empty or torn file.  ``fault_name``
    names a crash-injection point fired between the temp fsync and the
    replace (see :func:`repro.storage.durability.fault_point`).
    """
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        fsync_file(handle)
    if fault_name is not None:
        fault_point(fault_name)
    os.replace(temp_path, path)
    fsync_directory(os.path.dirname(path) or ".")
    return path


def atomic_write_bytes(
    path: str,
    data: bytes,
    *,
    fault_name: str | None = None,
) -> str:
    """:func:`atomic_write_text` for binary content (same protocol).

    Used by the replication install path for the shipped ``.arb`` and
    ``.idx`` files: a replica crash mid-install leaves either the complete
    old file or the complete new one, never a torn page grid.
    """
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
        fsync_file(handle)
    if fault_name is not None:
        fault_point(fault_name)
    os.replace(temp_path, path)
    fsync_directory(os.path.dirname(path) or ".")
    return path


# ---------------------------------------------------------------------- #
# Generation shipping (replication)
# ---------------------------------------------------------------------- #


def export_generation(base_path: str) -> dict:
    """The current generation of ``base_path`` as one JSON-able snapshot.

    The snapshot is the unit the replication channel ships: the pointer
    payload (including any embedded group-commit sidecar) plus every
    generation file, each wrapped in the WAL's checksummed ARBW frame
    (:func:`repro.storage.wal.frame_record`) and base64-encoded so the
    whole snapshot travels as one JSON line.  The ``.idx`` sidecar is
    optional exactly like on open; ``.arb``/``.lab``/``.meta`` must exist.
    """
    import base64

    from repro.storage.wal import frame_record

    base_path = resolve_logical_base(logical_base_of(base_path))
    pointer = read_pointer(base_path)
    payload = read_pointer_payload(base_path) or {
        "generation": pointer.generation,
        "counter": pointer.counter,
    }
    gen_base = generation_base(base_path, pointer.generation)
    files: dict[str, str] = {}
    for suffix in GENERATION_FILE_SUFFIXES:
        try:
            with open(gen_base + suffix, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            if suffix == ".idx":  # optional sidecar, absent on small bases
                continue
            raise StorageError(
                f"cannot export generation {pointer.generation} of {base_path}: "
                f"missing {gen_base + suffix}"
            ) from None
        files[suffix] = base64.b64encode(frame_record(data)).decode("ascii")
    return {
        "generation": pointer.generation,
        "counter": pointer.counter,
        "pointer": payload,
        "files": files,
    }


def install_generation(base_path: str, snapshot: dict) -> dict:
    """Atomically install a shipped generation snapshot at ``base_path``.

    The replica-side half of generation shipping.  Every file frame is
    checksum-verified *before* anything touches disk (a torn transfer
    installs nothing), the files are written with the temp + fsync +
    ``os.replace`` discipline of :func:`atomic_write_bytes`, their dirents
    are fsynced, and only then does the pointer swap commit the new
    generation -- the same crash story as a local group commit.  Readers
    pinned to the old generation keep their files: a shipped generation
    arrives under fresh ``.g<N>`` names.

    Installation is idempotent and monotonic: a snapshot whose change
    counter is not ahead of the local pointer is skipped (``installed:
    False``), unless the local current generation's ``.arb`` is missing
    (a bootstrapping replica directory), in which case the snapshot is
    installed regardless.
    """
    import base64

    from repro.storage.wal import parse_record

    try:
        generation = int(snapshot["generation"])
        counter = int(snapshot["counter"])
        files = snapshot["files"]
        if not isinstance(files, dict) or not files:
            raise TypeError
    except (KeyError, TypeError, ValueError):
        raise StorageError(
            f"malformed generation snapshot for {base_path}: needs integer "
            f"generation/counter and a non-empty files mapping"
        ) from None
    missing = {".arb", ".lab", ".meta"} - set(files)
    if missing:
        raise StorageError(
            f"generation snapshot for {base_path} is missing {sorted(missing)}"
        )
    base_path = resolve_logical_base(logical_base_of(base_path))
    with exclusive_writer(base_path):
        local = read_pointer(base_path)
        local_arb = generation_base(base_path, local.generation) + ".arb"
        if counter <= local.counter and os.path.exists(local_arb):
            return {
                "installed": False,
                "generation": local.generation,
                "counter": local.counter,
            }
        gen_base = generation_base(base_path, generation)
        decoded: dict[str, bytes] = {}
        for suffix, encoded in files.items():
            if suffix not in GENERATION_FILE_SUFFIXES:
                raise StorageError(
                    f"generation snapshot for {base_path} names an unknown "
                    f"file suffix {suffix!r}"
                )
            try:
                framed = base64.b64decode(encoded, validate=True)
            except (TypeError, ValueError) as error:
                raise StorageError(
                    f"undecodable replication frame for {gen_base + suffix}: {error}"
                ) from None
            data = parse_record(framed)
            if data is None:
                raise StorageError(
                    f"torn replication frame for {gen_base + suffix} "
                    f"(bad magic, length or checksum); refusing to install"
                )
            decoded[suffix] = data
        for suffix, data in decoded.items():
            atomic_write_bytes(gen_base + suffix, data)
        pointer_payload = snapshot.get("pointer")
        sidecar = None
        if isinstance(pointer_payload, dict):
            embedded = pointer_payload.get("sidecar")
            if isinstance(embedded, dict):
                sidecar = embedded
        write_pointer(
            base_path,
            GenerationPointer(generation=generation, counter=counter),
            sidecar=sidecar,
        )
        return {"installed": True, "generation": generation, "counter": counter}


# ---------------------------------------------------------------------- #
# Writer exclusion
# ---------------------------------------------------------------------- #

#: One lock per base path for in-process writers (threads).
_WRITER_LOCKS: dict[str, threading.Lock] = {}
_WRITER_LOCKS_GUARD = threading.Lock()


@contextmanager
def exclusive_writer(base_path: str):
    """Serialise writers of one base path: in-process lock + advisory flock.

    Two concurrent writers would read the same pointer counter, allocate
    the same generation number and interleave writes into the same files;
    the per-base ``threading.Lock`` covers threads, and an exclusive
    ``flock`` on the small ``<base>.lock`` sidecar covers other processes
    (released automatically by the kernel if the writer crashes, so a dead
    writer can never wedge the database).  Both the update subsystem and
    the database builder's pointer bump take this lock; readers never do.
    """
    key = os.path.abspath(base_path)
    with _WRITER_LOCKS_GUARD:
        lock = _WRITER_LOCKS.get(key)
        if lock is None:
            lock = _WRITER_LOCKS[key] = threading.Lock()
    with lock:
        handle = None
        if fcntl is not None:
            handle = os.open(base_path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            if handle is not None:
                fcntl.flock(handle, fcntl.LOCK_UN)
                os.close(handle)


def resolve_generation(base_path: str) -> tuple[int, str]:
    """``(generation, generation_base_path)`` named by the current pointer."""
    pointer = read_pointer(base_path)
    return pointer.generation, generation_base(base_path, pointer.generation)


def list_generations(base_path: str) -> list[int]:
    """*Committed* generation numbers with an ``.arb`` on disk, ascending.

    Includes generation 0 when the plain ``<base>.arb`` exists.  Files with
    a generation number beyond the pointer counter are excluded: a swap is
    the only thing that advances the counter, so such files can only be the
    leftovers of a crashed, never-committed update attempt -- they are not
    history, and the next update will overwrite them.
    """
    generations = []
    if os.path.exists(base_path + ".arb"):
        generations.append(0)
    directory = os.path.dirname(base_path) or "."
    stem = os.path.basename(base_path)
    pattern = re.compile(re.escape(stem) + r"\.g(\d+)\.arb$")
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    committed = read_pointer(base_path).counter
    for name in names:
        match = pattern.fullmatch(name)
        if match and int(match.group(1)) <= committed:
            generations.append(int(match.group(1)))
    return sorted(generations)


def write_metadata(
    base_path: str,
    *,
    n_nodes: int,
    record_size: int,
    element_nodes: int,
    char_nodes: int,
    n_tags: int,
    counter: int,
    generation: int = 0,
    parent_generation: int | None = None,
    fsync: bool = False,
) -> dict:
    """Write a generation's ``.meta`` sidecar; returns the written payload.

    One schema for both producers -- the builder (generation 0) and the
    update subsystem (spliced generations) -- so sidecar consumers never
    see a field set that depends on which path created the files.
    ``counter`` is the pointer change counter the files were created under
    (their creation counter, part of their content key -- see
    :func:`repro.storage.paging.content_key`); ``parent_generation`` is the
    update lineage link (``None`` for builds).  The returned payload is what
    the group-commit pipeline embeds in the pointer sidecar.
    """
    payload = {
        "n_nodes": n_nodes,
        "record_size": record_size,
        "element_nodes": element_nodes,
        "char_nodes": char_nodes,
        "n_tags": n_tags,
        "generation": generation,
        "parent_generation": parent_generation,
        "counter": counter,
    }
    with open(base_path + ".meta", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        if fsync:
            fsync_file(handle)
    return payload


def remove_generation_files(base_path: str, generation: int) -> None:
    """Delete the on-disk files of one (non-current) generation, if present."""
    base = generation_base(base_path, generation)
    for suffix in GENERATION_FILE_SUFFIXES:
        try:
            os.remove(base + suffix)
        except FileNotFoundError:
            pass


def prune_generations(base_path: str, retain: int) -> list[int]:
    """Delete old generation files, keeping the current one and ``retain - 1``
    of its most recent predecessors; returns the deleted generation numbers.

    Generation 0 (the original build) is never deleted -- it is the plain
    ``<base>.arb`` that pre-update tooling expects to find.  The current
    generation is never deleted either, whatever ``retain`` says.

    Pruning is an availability trade-off for pinned readers: a scan that is
    already open survives (POSIX unlink semantics), but a handle pinned to
    a pruned generation fails on its *next* scan open -- and a query batch
    opens the file once per scan of its pair.  Keep ``retain`` generous
    enough to cover the lifetime of in-flight readers (the default of
    keeping everything always is).
    """
    if retain < 1:
        raise StorageError("prune_generations needs retain >= 1")
    current = read_pointer(base_path).generation
    candidates = [gen for gen in list_generations(base_path) if gen not in (0, current)]
    doomed = candidates[: max(0, len(candidates) - (retain - 1))]
    for generation in doomed:
        remove_generation_files(base_path, generation)
    return doomed


def fsync_directory(directory: str) -> None:
    """Flush directory-entry changes to stable storage (best effort).

    Used after creating generation files (their *dirents* must be durable
    before the pointer swap commits to them) and after the pointer rename
    itself.
    """
    _fsync_directory(directory)
    count_dir_fsync()


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry rename to stable storage (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)
