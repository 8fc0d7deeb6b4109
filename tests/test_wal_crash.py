"""Crash consistency of group commits: the `.wal` roll-forward protocol.

A subprocess applies a three-operation group with ``REPRO_UPDATE_FAULT``
naming one of the commit's fault points, then dies with ``os._exit`` at
that exact stage.  (``tests/test_update_crash.py`` walks a group of *one*
through every stage; this suite holds a real group to the same contract and
covers what only the log itself can get wrong: torn records, crashes during
replay, invalid logged operations, torn sidecars.)  The invariants:

* before the WAL record is durable (``wal-append``) the group simply never
  happened -- the next open discards the torn WAL and serves the old
  generation;
* once the WAL record is durable (``wal-synced`` and every later stage) the
  group is **promised**: the next open replays it to completion, and the
  replayed generation is byte-identical to the same operations applied one
  commit at a time;
* after the pointer swap (``after-swap``) the group is committed; the
  next open merely truncates the spent WAL;
* the old generation's bytes survive every stage untouched, and the pointer
  file parses at every stage (never torn).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import Database
from repro.storage.build import build_database
from repro.storage.durability import durability
from repro.storage.generations import (
    GENERATION_FILE_SUFFIXES,
    generation_base,
    list_generations,
    pointer_path,
    read_pointer,
)
from repro.storage.update import (
    FAULT_ENV,
    FAULT_EXIT_CODE,
    FAULT_POINTS,
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_update,
)
from repro.storage.wal import read_group, wal_path

SRC = str(Path(__file__).resolve().parents[1] / "src")

DOC = "<lib><book><a/><b/></book><dvd/><book/></lib>"
BOOKS = "QUERY :- V.Label[book];"

#: The group the crashing subprocess attempts (mirrors tests/test_group_commit).
GROUP = (
    Relabel(1, "tome"),
    InsertSubtree(0, "<book><isbn/></book>", position=0),
    DeleteSubtree(4),
)

#: Counter starts at 1 after a build, so a three-op group commits as
#: generation 1 + 3.
TARGET_GENERATION = 4

GROUP_SCRIPT = """
import sys
from repro.storage.update import DeleteSubtree, InsertSubtree, Relabel, apply_many
apply_many(sys.argv[1], [
    Relabel(1, "tome"),
    InsertSubtree(0, "<book><isbn/></book>", position=0),
    DeleteSubtree(4),
])
print("survived")
"""

#: A logged group whose second operation is invalid against the base (node
#: 99 of a six-node document).  The live writer compiles the whole group
#: before it logs anything and would refuse this one, so the record is
#: written the way a foreign or older writer could have left it: directly.
INVALID_GROUP_SCRIPT = """
import sys
from repro.storage import wal
from repro.storage.generations import read_pointer
from repro.storage.paging import DEFAULT_PAGE_SIZE
from repro.storage.update import Relabel
pointer = read_pointer(sys.argv[1])
wal.append_group(
    sys.argv[1],
    base_generation=pointer.generation,
    base_counter=pointer.counter,
    target_counter=pointer.counter + 2,
    page_size=DEFAULT_PAGE_SIZE,
    ops=[Relabel(1, "x"), Relabel(99, "y")],
)
print("survived")
"""

OPEN_SCRIPT = """
import sys
from repro.storage.database import ArbDatabase
ArbDatabase.open(sys.argv[1])
print("opened")
"""

#: Pre-swap stages at which the WAL record is already durable: the group
#: must roll forward on the next open.  ``mid-arb`` fires on the first bytes
#: of the commit's one splice, so the replay has a torn `.arb` to overwrite.
PROMISED_POINTS = ("wal-synced", "mid-arb", "after-files", "pointer-tmp")


def _build(tmp_path, name: str = "doc") -> str:
    base = str(tmp_path / name)
    build_database(DOC, base, text_mode="ignore")
    return base


def _run(script: str, base: str, fault: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if fault is None:
        env.pop(FAULT_ENV, None)
    else:
        env[FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", script, base],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _sequential_reference(tmp_path) -> str:
    base = _build(tmp_path, "reference")
    for op in GROUP:
        apply_update(base, op)
    return base


def _old_generation_bytes(base: str) -> dict[str, bytes]:
    snapshot = {}
    for suffix in (".arb", ".lab", ".meta"):
        path = generation_base(base, 0) + suffix
        with open(path, "rb") as handle:
            snapshot[path] = handle.read()
    return snapshot


def test_crash_before_the_wal_is_durable_discards_the_group(tmp_path):
    base = _build(tmp_path)
    old = _old_generation_bytes(base)
    completed = _run(GROUP_SCRIPT, base, "wal-append")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert "survived" not in completed.stdout

    # The WAL was never fsynced: whatever of it exists is discarded and the
    # group never happened.
    database = Database.open(base)
    assert database.generation == 0
    assert database.n_nodes == 6
    assert read_pointer(base).counter == 1
    assert list_generations(base) == [0]
    assert _old_generation_bytes(base) == old
    assert read_group(base) is None


@pytest.mark.parametrize("fault", PROMISED_POINTS)
def test_crash_after_the_wal_is_durable_replays_the_group(tmp_path, fault):
    reference = _sequential_reference(tmp_path)
    base = _build(tmp_path)
    old = _old_generation_bytes(base)
    completed = _run(GROUP_SCRIPT, base, fault)
    assert completed.returncode == FAULT_EXIT_CODE, (fault, completed.stderr)

    # The promise is on disk before the crash...
    record = read_group(base)
    assert record is not None
    assert record["target_counter"] == TARGET_GENERATION

    # ...and the next open honours it: the group rolls forward.
    before = durability.snapshot()
    database = Database.open(base)
    assert durability.since(before).wal_replays == 1
    assert database.generation == TARGET_GENERATION
    assert database.n_nodes == 7
    assert database.query(BOOKS, engine="disk").count() == 2

    # Byte identity with the sequential applies survives the crash+replay.
    for suffix in (".arb", ".lab", ".idx"):
        with open(generation_base(base, TARGET_GENERATION) + suffix, "rb") as mine, \
                open(generation_base(reference, TARGET_GENERATION) + suffix, "rb") as theirs:
            assert mine.read() == theirs.read(), (fault, suffix)

    # The old generation is untouched and the WAL is spent.
    assert _old_generation_bytes(base) == old
    assert os.path.getsize(wal_path(base)) == 0


def _listing(base: str, *, but: tuple[str, ...] = ()) -> list[str]:
    return sorted(name for name in os.listdir(os.path.dirname(base)) if not name.endswith(but))


@pytest.mark.parametrize("fault", FAULT_POINTS[: FAULT_POINTS.index("after-swap")])
def test_crashed_group_leaves_nothing_but_generation_files(tmp_path, fault):
    """A commit writes its new generation's files, the log and the pointer
    -- no scratch file a crash could strand.  After recovery the directory
    lists exactly what committing the operations one by one (pruning as it
    goes) leaves behind."""
    (tmp_path / "crashed").mkdir()
    (tmp_path / "sequential").mkdir()
    base = _build(tmp_path / "crashed")
    completed = _run(GROUP_SCRIPT, base, fault)
    assert completed.returncode == FAULT_EXIT_CODE, (fault, completed.stderr)

    suffixes = "|".join(re.escape(suffix) for suffix in GENERATION_FILE_SUFFIXES)
    # ``.gen.tmp`` is the pointer's own write-then-rename temp (`pointer-tmp`).
    allowed = re.compile(rf"doc((\.g\d+)?({suffixes})|\.gen|\.gen\.tmp|\.wal|\.lock)")
    assert [name for name in _listing(base) if not allowed.fullmatch(name)] == []
    assert ("doc.gen.tmp" in _listing(base)) == (fault == "pointer-tmp")

    Database.open(base)  # discards or rolls forward
    reference = _build(tmp_path / "sequential")
    if FAULT_POINTS.index(fault) >= FAULT_POINTS.index("wal-synced"):
        for op in GROUP:
            apply_update(reference, op, retain_generations=1)
        assert read_pointer(base).generation == TARGET_GENERATION
    # (The spent log and the lock file stay wherever a writer once came by.)
    spent = (".wal", ".lock")
    assert _listing(base, but=spent) == _listing(reference, but=spent)


def test_crash_after_the_swap_truncates_the_spent_wal(tmp_path):
    base = _build(tmp_path)
    completed = _run(GROUP_SCRIPT, base, "after-swap")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr

    # Committed before the crash: the pointer already names the group's
    # generation; reopening must not replay (that would double-apply).
    assert read_pointer(base).generation == TARGET_GENERATION
    before = durability.snapshot()
    database = Database.open(base)
    assert durability.since(before).wal_replays == 0
    assert database.generation == TARGET_GENERATION
    assert database.n_nodes == 7
    assert os.path.getsize(wal_path(base)) == 0


def test_torn_wal_record_is_discarded(tmp_path):
    base = _build(tmp_path)
    completed = _run(GROUP_SCRIPT, base, "wal-synced")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert read_group(base) is not None

    # Tear the tail off the durable record (a torn disk write): the
    # checksum no longer matches, so the promise is void, not corrupt.
    size = os.path.getsize(wal_path(base))
    with open(wal_path(base), "r+b") as handle:
        handle.truncate(size - 3)
    assert read_group(base) is None
    database = Database.open(base)
    assert database.generation == 0
    assert database.n_nodes == 6


def test_invalid_logged_group_is_discarded_by_the_first_open(tmp_path):
    """Regression: the writer died between logging an invalid group and
    compiling it; the *next reader's* open used to raise the writer's
    ``relabel target 99 out of range`` (only the second open succeeded)."""
    base = _build(tmp_path)
    old = _old_generation_bytes(base)
    pointer = read_pointer(base)
    completed = _run(INVALID_GROUP_SCRIPT, base, "wal-synced")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert read_group(base) is not None  # the doomed promise is on disk

    completed = _run(OPEN_SCRIPT, base, None)
    assert completed.returncode == 0, completed.stderr
    assert "opened" in completed.stdout

    # The log is discarded, the pointer stands, and nothing half-applied:
    # Relabel(1, "x") was valid on its own but a group commits whole.
    assert os.path.getsize(wal_path(base)) == 0
    assert read_pointer(base) == pointer
    assert list_generations(base) == [0]
    assert _old_generation_bytes(base) == old
    database = Database.open(base)
    assert database.generation == 0
    assert database.query("QUERY :- V.Label[x];", engine="disk").count() == 0


def test_replay_is_itself_crash_safe(tmp_path):
    """A crash *during* replay leaves a WAL a later open still honours."""
    base = _build(tmp_path)
    completed = _run(GROUP_SCRIPT, base, "after-files")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr

    # Reopen with a fault at a later stage: the replay starts, crashes.
    completed = _run(OPEN_SCRIPT, base, "pointer-tmp")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert "opened" not in completed.stdout
    assert read_group(base) is not None

    # Third open, no fault: the twice-crashed group finally lands, once.
    database = Database.open(base)
    assert database.generation == TARGET_GENERATION
    assert database.n_nodes == 7
    assert database.query(BOOKS, engine="disk").count() == 2


def test_pointer_parses_at_every_group_stage(tmp_path):
    for fault in FAULT_POINTS:
        base = _build(tmp_path, f"doc-{fault}")
        completed = _run(GROUP_SCRIPT, base, fault)
        assert completed.returncode == FAULT_EXIT_CODE, (fault, completed.stderr)
        with open(pointer_path(base), "r", encoding="utf-8") as handle:
            payload = json.load(handle)  # parses at every stage: never torn
        assert {"generation", "counter"} <= set(payload) <= \
            {"generation", "counter", "sidecar"}
        # Whatever happened, the base opens and answers.
        Database.open(base).query(BOOKS, engine="disk")


def test_torn_sidecars_behind_a_committed_pointer_are_repaired(tmp_path):
    """os._exit keeps OS-buffered writes, so simulate the power loss by
    hand: after a committed crash, tear the unsynced `.lab` and drop the
    `.meta`; the pointer's sidecar payload must rebuild both on open."""
    base = _build(tmp_path)
    completed = _run(GROUP_SCRIPT, base, "after-swap")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr

    new_base = generation_base(base, TARGET_GENERATION)
    with open(new_base + ".lab", "w", encoding="utf-8") as handle:
        handle.write("@@garbage")
    os.remove(new_base + ".meta")

    database = Database.open(base)
    assert database.generation == TARGET_GENERATION
    assert database.n_nodes == 7
    assert database.query(BOOKS, engine="disk").count() == 2
    assert database.query("QUERY :- V.Label[tome];", engine="disk").count() == 1
