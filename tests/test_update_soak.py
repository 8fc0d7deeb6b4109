"""Concurrency soak: readers hammer queries while a writer applies updates.

The invariant under test is snapshot isolation at batch granularity: every
query batch -- a ``query_many`` scan pair, a coalesced service batch, a
per-document evaluation inside a collection query -- observes **exactly one
generation**.  The observable fingerprint of a generation is the pair
``(answer counts, batch .arb bytes read)``: the writer toggles the document
between two states whose node counts (and therefore file sizes and answer
counts) differ, so a batch that mixed generations would show a byte count
or a count/bytes pairing that belongs to neither state.  IOStatistics are
checked on every single batch; one torn observation fails the suite.
"""

from __future__ import annotations

import asyncio
import threading
import tracemalloc

from repro.collection import Collection
from repro.engine import Database
from repro.plan.cache import PlanCache
from repro.service import QueryService
from repro.storage.build import build_database
from repro.storage.structure import structure_cache
from repro.storage.update import DeleteSubtree, InsertSubtree, Relabel

BOOKS = "QUERY :- V.Label[book];"
DVDS = "QUERY :- V.Label[dvd];"

#: The marker subtree the writer deletes and re-inserts (3 nodes).
MARKER = "<book><a/><b/></book>"

#: State 0 has the marker as the root's first child; state 1 does not.
PADDING = 40


def _document() -> str:
    return "<lib>" + MARKER + "<dvd/>" * PADDING + "<book/>" + "</lib>"


def _signatures(n_state0: int):
    """``(books, dvds, batch bytes)`` fingerprints of the two states."""
    size0 = n_state0 * 2
    size1 = (n_state0 - 3) * 2
    return {
        (2, PADDING, 2 * size0),  # marker present
        (1, PADDING, 2 * size1),  # marker deleted
    }


def _toggle_ops():
    """The writer's alternating operations: delete the marker, restore it."""
    while True:
        yield DeleteSubtree(1)
        yield InsertSubtree(0, MARKER, position=0)


def test_readers_always_observe_exactly_one_generation(tmp_path):
    base = str(tmp_path / "doc")
    build_database(_document(), base, text_mode="ignore")
    n0 = Database.open(base).n_nodes
    signatures = _signatures(n0)
    stop = threading.Event()
    torn: list[object] = []

    def reader():
        cache = PlanCache()  # plans must not be executed concurrently
        while not stop.is_set():
            database = Database.open(base)
            database.plan_cache = cache
            batch = database.query_many([BOOKS, DVDS], engine="disk",
                                        temp_dir=str(tmp_path))
            observed = (
                batch.results[0].count(),
                batch.results[1].count(),
                batch.arb_io.bytes_read,
            )
            if observed not in signatures or batch.arb_io.seeks != 2:
                torn.append((observed, batch.arb_io.seeks))
                return

    readers = [threading.Thread(target=reader) for _ in range(6)]
    for thread in readers:
        thread.start()
    writer = Database.open(base)
    ops = _toggle_ops()
    try:
        for _ in range(24):
            writer.apply(next(ops))
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert not torn, f"torn observations: {torn}"
    assert writer.generation > 0


def test_service_batches_pin_one_generation_across_applies(tmp_path):
    base = str(tmp_path / "doc")
    build_database(_document(), base, text_mode="ignore")
    database = Database.open(base)
    signatures = _signatures(database.n_nodes)

    async def run() -> list[tuple]:
        observations: list[tuple] = []
        async with QueryService(database, window=0.002, max_batch=16,
                                temp_dir=str(tmp_path)) as service:

            async def client(n: int):
                for _ in range(n):
                    response = await service.submit(BOOKS)
                    dvds = await service.submit(DVDS)
                    observations.append(
                        (
                            response.count(),
                            dvds.count(),
                            response.batch_arb_io.bytes_read,
                            response.batch_arb_io.seeks,
                        )
                    )

            async def writer(n: int):
                ops = _toggle_ops()
                for _ in range(n):
                    await service.apply(next(ops))
                    await asyncio.sleep(0)

            await asyncio.gather(*(client(10) for _ in range(5)), writer(8))
            assert service.stats().updates == 8
        return observations

    observations = asyncio.run(run())
    assert len(observations) == 50
    for books, dvds, batch_bytes, seeks in observations:
        # Each response's batch I/O must fingerprint exactly one generation;
        # the books/dvds counts come from *different* batches, so only the
        # (books, bytes) pairing is batch-consistent by construction.
        assert seeks == 2
        assert any(
            books == sig_books and batch_bytes == sig_bytes
            for sig_books, _, sig_bytes in signatures
        ), (books, batch_bytes)
        assert dvds == PADDING  # padding is never touched by the writer


def test_collection_queries_pin_generations_per_document(tmp_path):
    root = str(tmp_path / "corpus")
    collection = Collection.create(root)
    collection.add_document(_document(), doc_id="hot", text_mode="ignore")
    collection.add_document("<lib><book/><dvd/></lib>", doc_id="cold-1",
                            text_mode="ignore")
    collection.add_document("<lib><dvd/><dvd/></lib>", doc_id="cold-2",
                            text_mode="ignore")
    n0 = collection.manifest.get("hot").n_nodes
    hot_signatures = _signatures(n0)
    cold_bytes = {
        "cold-1": 2 * collection.manifest.get("cold-1").n_nodes * 2,
        "cold-2": 2 * collection.manifest.get("cold-2").n_nodes * 2,
    }
    stop = threading.Event()
    torn: list[object] = []

    def reader():
        while not stop.is_set():
            result = collection.query_many([BOOKS, DVDS], n_workers=2,
                                           temp_dir=str(tmp_path))
            for doc in result:
                observed = (
                    doc.results[0].count(),
                    doc.results[1].count(),
                    doc.arb_io.bytes_read,
                )
                if doc.doc_id == "hot":
                    consistent = observed in hot_signatures
                else:
                    consistent = observed[2] == cold_bytes[doc.doc_id]
                if not consistent or doc.arb_io.seeks != 2:
                    torn.append((doc.doc_id, observed, doc.arb_io.seeks))
                    return

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    ops = _toggle_ops()
    try:
        for _ in range(10):
            collection.apply("hot", next(ops))
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert not torn, f"torn observations: {torn}"
    assert collection.manifest.get("hot").generation > 0
    assert collection.manifest.get("cold-1").generation == 0


def test_structure_cache_stays_bounded_over_a_mixed_update_stream(tmp_path):
    """Finding 9, the analysis cache's share: 70 mixed commits on one base.

    A cached structure is three flat sequences, 2 + 4 + 1 = 7 bytes per node
    at the default record size (it was 129: four int lists and a list of
    tuples); with the slack a sequence keeps after growing in place
    (1/16th of an array, 1/8th of a bytearray) under 8.  So everything the
    analysis module keeps alive is bounded by ``capacity * n_nodes * 8``
    whatever the operations were, and does not grow with the stream.
    """
    base = str(tmp_path / "doc")
    page = 1024  # small pages: a commit re-summarises few records for the `.idx`
    build_database("<lib>" + "<book><a/><b/></book><dvd/>" * 4000 + "</lib>", base,
                   text_mode="ignore", page_size=page)
    database = Database.open(base, page_size=page)
    largest = database.n_nodes + 70 * 3  # no commit below adds more than 3 nodes

    def held() -> int:
        mine = tracemalloc.Filter(True, "*/repro/storage/structure.py")
        return sum(s.size for s in tracemalloc.take_snapshot().filter_traces([mine]).statistics("filename"))

    samples = {}
    tracemalloc.start()
    try:
        for update in range(1, 71):
            # Structural edits near the end of the file, so that few pages
            # shift off the grid and need their `.idx` summary recomputed.
            node = database.n_nodes - 1 - (update * 37) % 500
            commit = [
                [Relabel(update * 211, f"tag{update % 5}")],
                [InsertSubtree(0, MARKER)],
                [DeleteSubtree(database.n_nodes - 1)],
                [InsertSubtree(node, "<cd/>"), Relabel(node, "box"), DeleteSubtree(database.n_nodes)],
            ][update % 4]
            result = database.apply_many(commit, retain_generations=2)
            assert result.statistics.analysis_cache_hit == (update > 1)
            if update % 10 == 0:
                samples[update] = held()
    finally:
        tracemalloc.stop()
    assert max(samples.values()) <= structure_cache.capacity * largest * 8, samples
    assert samples[70] <= samples[10] * 1.01, samples
