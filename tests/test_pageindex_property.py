"""Differential and crash properties of the `.idx` page-skipping sidecar.

The sidecar is a pure accelerator: with it, a selective batch skips pages
outright; without it (a missing sidecar, or a torn one), the same batch
runs the plain full scans -- which is how the full-scan side of every
differential here is produced: :func:`tests.conftest.sidecars_hidden`
renames the sidecars away for the duration of the run.  The invariants:

* **answers are identical** -- indexed and full-scan evaluation select the
  same nodes for every query of every batch, on freshly built databases
  and on spliced generations alike;
* **the index only ever helps** -- ``pages_read`` with the index is never
  above the full-scan count;
* **corruption is safe** -- a torn/truncated/missing sidecar is detected
  (checksum, size, magic) and silently degrades to full scans;
* **crashes are safe** -- a crash while the commit writes the new
  generation's sidecar leaves the old generation fully intact, and the
  roll-forward on the next open produces a valid new sidecar;
* **one writer, one oracle** -- whatever a commit inherited from its
  parent's sidecar, the `.idx` it leaves equals a from-scratch summary of
  the final `.arb` bytes.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.plan.cache import PlanCache
from repro.storage.database import ArbDatabase
from repro.storage.generations import read_pointer, resolve_generation
from repro.storage.pageindex import (
    index_path_of,
    load_page_index,
    summarize_arb_bytes,
)
from repro.storage.update import (
    FAULT_ENV,
    FAULT_EXIT_CODE,
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_many,
    apply_to_tree,
)
from repro.tree.xml_io import parse_xml
from tests.conftest import sidecars_hidden
from tests.strategies import tmnf_programs as programs

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Small pages so even hypothesis-sized documents span several of them.
PAGE_SIZE = 512

#: A grid fine enough (32 records per page) that hypothesis-sized documents
#: span many pages and a 32- or 64-node insert shifts the suffix by whole
#: pages -- the case in which a commit *inherits* summaries instead of
#: recomputing them.
ORACLE_PAGE_SIZE = 64

#: Tag names outside the program strategy's ``a``/``b`` alphabet: sections
#: made of these are exactly what the index can prove irrelevant.
_NOISE_TAGS = ("n0", "n1", "n2", "n3")


@st.composite
def sectioned_documents(draw, min_sections: int = 1, min_leaves: int = 1) -> str:
    """XML documents made of sections, most of them index-skippable noise."""
    sections = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # does the section use program-relevant labels?
                st.integers(min_value=min_leaves, max_value=40),
                st.integers(min_value=0, max_value=len(_NOISE_TAGS) - 1),
            ),
            min_size=min_sections,
            max_size=12,
        )
    )
    parts = []
    for relevant, size, tag in sections:
        wrap = "b" if relevant else _NOISE_TAGS[tag]
        leaf = "a" if relevant else _NOISE_TAGS[(tag + 1) % len(_NOISE_TAGS)]
        parts.append(f"<{wrap}>" + f"<{leaf}/>" * size + f"</{wrap}>")
    return "<r>" + "".join(parts) + "</r>"


def _build(document: str, directory: str) -> Database:
    database = Database.build(document, f"{directory}/doc", page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    return database


def _answers(batch) -> list[dict[str, list[int]]]:
    """The selected nodes of every query, in a comparable shape."""
    return [{pred: sorted(nodes) for pred, nodes in result.selected.items()} for result in batch.results]


def _full_scan(database: Database, batch):
    """``batch`` with the sidecars of the database's directory hidden."""
    with sidecars_hidden(os.path.dirname(database.disk.base_path)):
        return database.query_many(batch)


def _differential(database: Database, batch) -> None:
    indexed = database.query_many(batch)
    full = _full_scan(database, batch)
    assert _answers(indexed) == _answers(full)
    assert indexed.arb_io.pages_read <= full.arb_io.pages_read
    assert full.arb_io.seeks == 2  # the plain scan pair, pinned elsewhere too
    assert indexed.arb_io.seeks >= 2  # each skip adds a discontinuity


# ---------------------------------------------------------------------- #
# Differential properties
# ---------------------------------------------------------------------- #


@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=3),
)
@settings(max_examples=25, **COMMON_SETTINGS)
def test_indexed_batches_match_full_scans(document, batch):
    with tempfile.TemporaryDirectory() as directory:
        _differential(_build(document, directory), batch)


@given(
    document=sectioned_documents(),
    batch=st.lists(programs(), min_size=1, max_size=2),
    data=st.data(),
)
@settings(max_examples=15, **COMMON_SETTINGS)
def test_indexed_batches_match_full_scans_after_updates(document, batch, data):
    """The splice-maintained sidecar of a new generation stays truthful."""
    with tempfile.TemporaryDirectory() as directory:
        database = _build(document, directory)
        n = database.n_nodes
        edits = [
            Relabel(
                data.draw(st.integers(0, n - 1), label="relabel node"),
                data.draw(st.sampled_from(("a", "b") + _NOISE_TAGS), label="label"),
            ),
            InsertSubtree(0, "<b><a/><n2/></b>", position=0),
        ]
        if n > 1:
            # Ids are interpreted against the post-insert generation, whose
            # node count only grew, so any id of the original range is valid.
            edits.append(DeleteSubtree(data.draw(st.integers(1, n - 1), label="delete")))
        database.apply(edits)
        assert database.generation > 0
        _differential(database, batch)


# ---------------------------------------------------------------------- #
# Deterministic selectivity
# ---------------------------------------------------------------------- #

#: 40 sections of 40 leaves each; a one-section query touches 1/40th of it.
_SECTIONED_DOC = "<r>" + "".join(f"<s{i:02d}>" + "<x/>" * 40 + f"</s{i:02d}>" for i in range(40)) + "</r>"

_SELECTIVE_QUERY = "QUERY :- V.Label[s03];"

#: Batches naming 1, 10 and all 40 sections: each contains the one before.
_BATCH_SIZES = (1, 10, 40)


def _section_batch(n_sections: int) -> list[str]:
    """``n_sections`` one-section queries, ``_SELECTIVE_QUERY``'s section first."""
    return [f"QUERY :- V.Label[s{(3 + i) % 40:02d}];" for i in range(n_sections)]


def _section_record(section: int) -> int:
    """The record of ``<sNN>`` in ``_SECTIONED_DOC``: the root, then 41
    records per section."""
    return 1 + 41 * section


@pytest.mark.parametrize("n_sections", _BATCH_SIZES)
def test_selective_batch_reads_under_a_quarter_of_the_pages(tmp_path, n_sections):
    database = Database.build(_SECTIONED_DOC, str(tmp_path / "doc"), page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    indexed = database.query_many(_section_batch(n_sections))
    full = _full_scan(database, _section_batch(n_sections))
    assert _answers(indexed) == _answers(full)
    # The index only ever helps, and naming more sections never reads fewer
    # pages than the batch it contains.
    assert indexed.arb_io.pages_read <= full.arb_io.pages_read
    fewer = _BATCH_SIZES[max(0, _BATCH_SIZES.index(n_sections) - 1)]
    assert database.query_many(_section_batch(fewer)).arb_io.pages_read <= indexed.arb_io.pages_read
    if n_sections < 40:
        # Each scan reads up to the page of the last section named and
        # skips the rest of the root's child list as one self-contained run.
        last = _section_record(3 + n_sections - 1)
        assert indexed.arb_io.pages_read == 2 * ((last * 2) // PAGE_SIZE + 1) == {1: 2, 10: 4}[n_sections]
    if n_sections == 1:
        assert indexed.arb_io.pages_read * 4 < full.arb_io.pages_read
        # Skipped pages are never read at all: the byte counter shrank too.
        assert indexed.arb_io.bytes_read < full.arb_io.bytes_read


def test_a_batch_naming_both_ends_skips_the_middle(tmp_path):
    """``s00`` and ``s39``: sections ``s01 .. s38`` between them are a chain
    of neutral siblings that the scans carry the automaton state across.
    On a grid of 32 records per page each scan reads four pages: the two
    holding the ends of the chain (``s01``'s head, ``s38``'s head) and the
    two holding ``s00`` and ``s39``; the tails of ``s38`` and ``s39`` are
    self-contained runs."""
    database = Database.build(_SECTIONED_DOC, str(tmp_path / "doc"), page_size=ORACLE_PAGE_SIZE)
    database.plan_cache = PlanCache()
    batch = ["QUERY :- V.Label[s00];", "QUERY :- V.Label[s39];"]
    indexed = database.query_many(batch)
    full = _full_scan(database, batch)
    assert _answers(indexed) == _answers(full)
    assert _answers(indexed) == [{"QUERY": [_section_record(0)]}, {"QUERY": [_section_record(39)]}]
    assert indexed.arb_io.pages_read * 4 < full.arb_io.pages_read
    pages = {_section_record(section) * 2 // ORACLE_PAGE_SIZE for section in (0, 1, 38, 39)}
    assert indexed.arb_io.pages_read == 2 * len(pages) == 8


# ---------------------------------------------------------------------- #
# Corruption: a broken sidecar degrades to full scans, never to wrong answers
# ---------------------------------------------------------------------- #


def _corrupt_flip(path: str) -> None:
    payload = bytearray(Path(path).read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(payload))


def _corrupt_truncate(path: str) -> None:
    payload = Path(path).read_bytes()
    Path(path).write_bytes(payload[: len(payload) // 2])


def _corrupt_remove(path: str) -> None:
    os.remove(path)


@pytest.mark.parametrize("corrupt", [_corrupt_flip, _corrupt_truncate, _corrupt_remove])
def test_torn_index_falls_back_to_full_scans(tmp_path, corrupt):
    base = str(tmp_path / "doc")
    database = Database.build(_SECTIONED_DOC, base, page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    full = _full_scan(database, [_SELECTIVE_QUERY])

    _, gen_base = resolve_generation(base)
    corrupt(index_path_of(gen_base))
    assert load_page_index(index_path_of(gen_base)) is None

    degraded = database.query_many([_SELECTIVE_QUERY])
    assert _answers(degraded) == _answers(full)
    assert degraded.arb_io.pages_read == full.arb_io.pages_read


# ---------------------------------------------------------------------- #
# The one index writer against an independent oracle
# ---------------------------------------------------------------------- #

_PARENT_INDEX_STATES = {
    "intact": lambda path: None,
    "missing": _corrupt_remove,
    "torn": _corrupt_truncate,
}


def _assert_index_matches_oracle(base: str) -> None:
    _, gen_base = resolve_generation(base)
    database = ArbDatabase.open(gen_base, page_size=ORACLE_PAGE_SIZE)
    written = load_page_index(index_path_of(gen_base))
    assert written is not None
    assert written == summarize_arb_bytes(
        Path(database.arb_path).read_bytes(),
        n_records=database.n_nodes,
        record_size=database.record_size,
        page_size=ORACLE_PAGE_SIZE,
        n_label_indices=written.n_label_indices,
    )


def _draw_group(data, mirror):
    """1-6 valid operations against ``mirror``; ``(ops, the tree they leave)``."""
    ops = []
    for _ in range(data.draw(st.integers(1, 6), label="group size")):
        nodes = list(mirror.iter_nodes())
        kinds = ("relabel", "insert", "delete") if len(nodes) > 1 else ("relabel", "insert")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "relabel":
            op = Relabel(
                data.draw(st.integers(0, len(nodes) - 1)),
                data.draw(st.sampled_from(("a", "b", "fresh") + _NOISE_TAGS)),
            )
        elif kind == "delete":
            op = DeleteSubtree(data.draw(st.integers(1, len(nodes) - 1)))
        else:
            parent = data.draw(st.integers(0, len(nodes) - 1))
            n_new = data.draw(st.sampled_from((1, 2, 5, 32, 64)), label="inserted nodes")
            op = InsertSubtree(
                parent,
                "<b>" + "<a/>" * (n_new - 1) + "</b>",
                position=data.draw(st.integers(0, len(nodes[parent].children))),
            )
        ops.append(op)
        mirror = apply_to_tree(mirror, op)
    return ops, mirror


@given(document=sectioned_documents(min_sections=6, min_leaves=16), data=st.data())
@settings(max_examples=40, **COMMON_SETTINGS)
def test_committed_index_equals_a_from_scratch_summary(document, data):
    """Whatever a commit inherited through its splice -- from an intact
    parent sidecar, or from none at all -- the `.idx` it writes is exactly
    what :func:`summarize_arb_bytes` computes from the final `.arb` alone."""
    with tempfile.TemporaryDirectory() as directory:
        base = f"{directory}/doc"
        Database.build(document, base, page_size=ORACLE_PAGE_SIZE)
        mirror = parse_xml(document)
        assert mirror.node_count() * 2 > 3 * ORACLE_PAGE_SIZE  # multi-page from the start
        for _ in range(data.draw(st.integers(1, 3), label="commits")):
            _, parent_base = resolve_generation(base)
            state = data.draw(st.sampled_from(sorted(_PARENT_INDEX_STATES)), label="parent .idx")
            _PARENT_INDEX_STATES[state](index_path_of(parent_base))
            ops, mirror = _draw_group(data, mirror)
            result = apply_many(base, ops, page_size=ORACLE_PAGE_SIZE)
            assert result.n_nodes == mirror.node_count()
            _assert_index_matches_oracle(base)


def test_a_shortened_last_page_is_not_inherited(tmp_path):
    """Cutting the tail off leaves a short last page wholly inside the copied
    prefix; its old counterpart was longer, so its summary must be recomputed."""
    base = str(tmp_path / "doc")
    document = "<r>" + "".join(f"<s{i}>" + "<x/>" * 20 + f"</s{i}>" for i in range(6)) + "</r>"
    n_nodes = Database.build(document, base, page_size=ORACLE_PAGE_SIZE).n_nodes
    result = apply_many(base, [DeleteSubtree(n_nodes - 21)], page_size=ORACLE_PAGE_SIZE)  # <s5>
    assert result.arb_bytes % ORACLE_PAGE_SIZE  # the new last page is short
    _assert_index_matches_oracle(base)


def _version_1(index) -> bytes:
    """``index`` as the format-1 sidecar: ``pops`` and ``pushes`` only."""
    body = struct.pack(
        ">4sHHIQI", b"ARBX", 1, index.record_size, index.page_size, index.n_records, index.n_label_indices
    )
    for pops, pushes, bits in zip(index.pops, index.pushes, index.label_bits):
        body += struct.pack(">II", pops, pushes) + bits.to_bytes((index.n_label_indices + 7) // 8, "little")
    return body + struct.pack(">I", zlib.crc32(body))


def test_a_version_1_index_degrades_to_full_scans_until_the_next_commit(tmp_path):
    base = str(tmp_path / "doc")
    database = Database.build(_SECTIONED_DOC, base, page_size=ORACLE_PAGE_SIZE)
    database.plan_cache = PlanCache()
    full = _full_scan(database, [_SELECTIVE_QUERY])
    path = index_path_of(resolve_generation(base)[1])
    Path(path).write_bytes(_version_1(load_page_index(path)))
    assert load_page_index(path) is None

    degraded = database.query_many([_SELECTIVE_QUERY])
    assert _answers(degraded) == _answers(full)
    assert degraded.arb_io.pages_read == full.arb_io.pages_read

    apply_many(base, [Relabel(1, "s00")], page_size=ORACLE_PAGE_SIZE)
    _assert_index_matches_oracle(base)
    healed = Database.open(base, page_size=ORACLE_PAGE_SIZE)
    healed.plan_cache = PlanCache()
    assert healed.query_many([_SELECTIVE_QUERY]).arb_io.pages_read < full.arb_io.pages_read


# ---------------------------------------------------------------------- #
# Crash injection: dying while the new generation's sidecar is half-written
# ---------------------------------------------------------------------- #

_CRASH_SCRIPT = """
import sys
from repro.storage.update import InsertSubtree, apply_update
apply_update(sys.argv[1], InsertSubtree(0, "<b><a/></b>", position=0), page_size=512)
print("survived")
"""


def _crash_apply(base: str, fault: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if fault is None:
        env.pop(FAULT_ENV, None)
    else:
        env[FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, base],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_mid_index_crash_preserves_old_generation_and_open_rolls_forward(tmp_path):
    base = str(tmp_path / "doc")
    database = Database.build(_SECTIONED_DOC, base, page_size=PAGE_SIZE)
    database.plan_cache = PlanCache()
    before = _answers(database.query_many([_SELECTIVE_QUERY]))
    old_index = Path(index_path_of(base)).read_bytes()

    completed = _crash_apply(base, "mid-idx")
    assert completed.returncode == FAULT_EXIT_CODE, completed.stderr
    assert "survived" not in completed.stdout

    # The sidecar write happens before the pointer swap: the old generation
    # (files, sidecar and answers) is untouched by the dead attempt, and a
    # reader that pinned it keeps answering from it.
    assert read_pointer(base).generation == 0
    assert Path(index_path_of(base)).read_bytes() == old_index
    assert _answers(database.query_many([_SELECTIVE_QUERY])) == before

    # The commit's intent was durable long before the sidecar write, so the
    # next open rolls it forward over the torn leftovers -- and the sidecar
    # it writes is valid.
    after = Database.open(base, page_size=PAGE_SIZE)
    after.plan_cache = PlanCache()
    assert after.generation > 0
    assert load_page_index(index_path_of(resolve_generation(base)[1])) is not None
    _differential(after, [_SELECTIVE_QUERY])

    # A retry of the same update lands on top of the rolled-forward one.
    completed = _crash_apply(base, None)
    assert completed.returncode == 0, completed.stderr
    assert "survived" in completed.stdout
    assert Database.open(base, page_size=PAGE_SIZE).n_nodes == after.n_nodes + 2
