"""Crash consistency of copy-on-write commits (`storage/update.py`).

A subprocess applies a *single* update with ``REPRO_UPDATE_FAULT`` naming one
of the commit's fault points; the update code then dies with ``os._exit`` at
that exact stage -- no cleanup handlers, no flushing, a real crash model.
The contract, stated once for every stage of :data:`FAULT_POINTS` (a single
update is a group of one; ``tests/test_wal_crash.py`` holds a group of three
to the same contract):

* the old generation's files are byte-identical to their pre-update state
  at every stage (copy-on-write means the commit never opens them for
  writing), and the pointer file parses at every stage;
* before the intent record is durable (up to ``wal-append``) the commit
  never happened: the old generation stays current, nothing is replayed;
* from ``wal-synced`` on the commit is promised: the first open lands on a
  generation whose files are byte-identical to an uncrashed twin's --
  replayed from the log before the swap, merely acknowledged after it;
* the next *writer* recovers the same way before applying its own update.
"""

from __future__ import annotations

import json
import os
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
from repro.storage.update import FAULT_ENV, FAULT_EXIT_CODE, FAULT_POINTS
from repro.storage.wal import wal_path

SRC = str(Path(__file__).resolve().parents[1] / "src")

DOC = "<lib><book><a/><b/></book><dvd/><book/></lib>"
BOOKS = "QUERY :- V.Label[book];"

#: The update the crashing subprocess attempts: an insert, so the new
#: generation differs from the old one in size as well as content.
CRASH_SCRIPT = """
import sys
from repro.storage.update import InsertSubtree, apply_update
apply_update(sys.argv[1], InsertSubtree(0, "<book><isbn/></book>", position=0))
print("survived")
"""

#: Stages at which the intent record is not durable yet: the commit is lost.
DISCARDED_POINTS = FAULT_POINTS[: FAULT_POINTS.index("wal-synced")]
#: Stages from which the first open must land on the committed generation.
PROMISED_POINTS = FAULT_POINTS[FAULT_POINTS.index("wal-synced") :]


def _build(tmp_path, name: str = "doc") -> str:
    base = str(tmp_path / name)
    build_database(DOC, base, text_mode="ignore")
    return base


def _generation_files(base: str, generation: int) -> dict[str, bytes]:
    """Byte snapshot of one generation's files, keyed by suffix."""
    gen_base = generation_base(base, generation)
    return {suffix: Path(gen_base + suffix).read_bytes() for suffix in GENERATION_FILE_SUFFIXES}


def _crash_apply(base: str, fault: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if fault is None:
        env.pop(FAULT_ENV, None)
    else:
        env[FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", CRASH_SCRIPT, base],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("fault", DISCARDED_POINTS)
def test_crash_before_the_intent_is_durable_discards_the_update(tmp_path, fault):
    base = _build(tmp_path)
    old = _generation_files(base, 0)
    pointer = Path(pointer_path(base)).read_bytes()
    answers_before = Database.open(base).query(BOOKS, engine="disk").selected_nodes()

    completed = _crash_apply(base, fault)
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert "survived" not in completed.stdout

    # The database reopens on the old generation, nothing is replayed, and it
    # answers exactly as before the attempt.
    before = durability.snapshot()
    database = Database.open(base)
    assert durability.since(before).wal_replays == 0
    assert database.generation == 0
    assert database.n_nodes == 6
    assert database.query(BOOKS, engine="disk").selected_nodes() == answers_before
    # Every old byte is intact, the pointer included, and no history appeared.
    assert _generation_files(base, 0) == old
    assert Path(pointer_path(base)).read_bytes() == pointer
    assert list_generations(base) == [0]


@pytest.mark.parametrize("fault", PROMISED_POINTS)
def test_crash_after_the_intent_is_durable_lands_on_the_twin_generation(tmp_path, fault):
    twin = _build(tmp_path, "twin")
    assert _crash_apply(twin, None).returncode == 0
    target = read_pointer(twin).generation

    base = _build(tmp_path)
    old = _generation_files(base, 0)
    completed = _crash_apply(base, fault)
    assert completed.returncode == FAULT_EXIT_CODE, (fault, completed.stderr)
    assert "survived" not in completed.stdout
    swapped = fault == "after-swap"
    # Until somebody opens the base, the pointer names whichever complete
    # generation the crash left current -- never a torn one.
    assert read_pointer(base).generation == (target if swapped else 0)

    before = durability.snapshot()
    database = Database.open(base)
    # Before the swap the open replays the logged update; after it the
    # update is already committed and must not be applied twice.
    assert durability.since(before).wal_replays == (0 if swapped else 1)
    assert database.generation == target
    assert database.n_nodes == 8  # insert applied in full
    assert database.query(BOOKS, engine="disk").count() == 3
    assert _generation_files(base, target) == _generation_files(twin, target)
    assert _generation_files(base, 0) == old
    assert os.path.getsize(wal_path(base)) == 0


@pytest.mark.parametrize("fault", ["mid-arb", "pointer-tmp"])
def test_next_writer_recovers_before_applying(tmp_path, fault):
    """A crashed attempt (torn new files included) never blocks the next
    writer: it rolls the promised update forward, then applies its own."""
    base = _build(tmp_path)
    completed = _crash_apply(base, fault)
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr

    completed = _crash_apply(base, None)  # the same update again, no fault
    assert completed.returncode == 0, completed.stderr
    assert "survived" in completed.stdout

    database = Database.open(base)
    assert read_pointer(base).counter == 3  # build, replayed update, retry
    assert database.n_nodes == 10
    assert database.query(BOOKS, engine="disk").count() == 4


def test_mid_splice_crash_leaves_the_torn_file_unreachable(tmp_path):
    base = _build(tmp_path)
    completed = _crash_apply(base, "mid-arb")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    # A torn .arb of the attempted generation exists on disk...
    attempted = generation_base(base, read_pointer(base).counter + 1) + ".arb"
    assert os.path.getsize(attempted) < 8 * 2  # genuinely incomplete
    # ...but no resolution path reaches it: the pointer still names the old
    # generation, and files numbered above the committed counter are not
    # history.
    assert read_pointer(base).generation == 0
    assert list_generations(base) == [0]
    # The roll-forward overwrites it with the complete file.
    assert Database.open(base).n_nodes == 8
    assert os.path.getsize(attempted) == 8 * 2


def test_pointer_file_is_json_and_never_torn(tmp_path):
    base = _build(tmp_path)
    for fault in FAULT_POINTS:
        completed = _crash_apply(base, fault)
        assert completed.returncode == FAULT_EXIT_CODE, (fault, completed.stderr)
        with open(pointer_path(base), "r", encoding="utf-8") as handle:
            payload = json.load(handle)  # parses at every stage: never torn
        assert {"generation", "counter"} <= set(payload) <= \
            {"generation", "counter", "sidecar"}
        # Whatever happened, the pointer resolves to an openable database.
        Database.open(base).query(BOOKS, engine="disk")
