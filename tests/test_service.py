"""Core behavior of the coalescing query service.

The contract under test: concurrent requests that land in one window share
**one** scan pair of the target's `.arb` file (total ``pages_read`` equal to
a single client's, however many riders), every caller gets exactly its own
answer back, and admission control rejects -- never queues unboundedly --
once the depth limit is hit.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import Collection, Database, PlanCache
from repro.errors import ServiceClosedError, ServiceError, ServiceOverloadedError
from repro.service import QueryService

DOCUMENT = "<lib>" + "<book><t>x</t></book>" * 7 + "<dvd/>" * 3 + "</lib>"

BOOKS = "QUERY :- V.Label[book];"
DVDS = "QUERY :- V.Label[dvd];"
TITLES = "QUERY :- V.Label[t];"


@pytest.fixture
def disk_database(tmp_path) -> Database:
    database = Database.build(DOCUMENT, str(tmp_path / "doc"))
    database.plan_cache = PlanCache()
    return database


def run(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------------- #
# Answers and coalescing
# --------------------------------------------------------------------------- #


def test_single_request_matches_direct_query(disk_database):
    async def main():
        async with QueryService(disk_database, window=0.01) as service:
            return await service.submit(BOOKS)

    response = run(main())
    direct = disk_database.query(BOOKS, engine="disk")
    assert response.count() == direct.count() == 7
    assert response.selected_nodes() == direct.selected_nodes()
    assert response.batch_size == 1
    assert not response.coalesced


def test_concurrent_requests_share_one_scan_pair(disk_database):
    queries = [BOOKS, DVDS, TITLES, BOOKS, DVDS, TITLES]

    async def main():
        async with QueryService(disk_database, window=0.05) as service:
            single = await service.submit(BOOKS)
            burst = await asyncio.gather(*[service.submit(q) for q in queries])
            return single, burst

    single, burst = run(main())
    # Every rider reports the same shared batch and the same scan pair.
    assert {response.batch_id for response in burst} == {burst[0].batch_id}
    assert all(response.batch_size == len(queries) for response in burst)
    assert all(response.coalesced for response in burst)
    # The batch's .arb I/O equals the single-client figure: one backward +
    # one forward scan, independent of the number of coalesced clients.
    assert burst[0].batch_arb_io.pages_read == single.batch_arb_io.pages_read
    assert burst[0].batch_arb_io.seeks == 2
    # Demux: each caller got its own answer, none of a batch-mate's.
    expected = {BOOKS: 7, DVDS: 3, TITLES: 7}
    for query, response in zip(queries, burst):
        assert response.count() == expected[query]


def test_batch_full_dispatches_without_waiting(disk_database):
    async def main():
        async with QueryService(disk_database, window=30.0, max_batch=4) as service:
            return await asyncio.gather(*[service.submit(BOOKS) for _ in range(4)])

    responses = run(main())  # would time out if the 30s window were awaited
    assert all(response.batch_size == 4 for response in responses)


def test_memory_database_target():
    database = Database.from_xml(DOCUMENT)
    database.plan_cache = PlanCache()

    async def main():
        async with QueryService(database, window=0.02) as service:
            return await asyncio.gather(service.submit(BOOKS), service.submit(DVDS))

    books, dvds = run(main())
    assert books.count() == 7
    assert dvds.count() == 3


def test_collection_target(tmp_path):
    collection = Collection.create(str(tmp_path / "corpus"), plan_cache=PlanCache())
    for index in range(3):
        collection.add_document(DOCUMENT, doc_id=f"doc-{index}")

    async def main():
        async with QueryService(collection, window=0.05) as service:
            single = await service.submit(BOOKS)
            burst = await asyncio.gather(
                service.submit(BOOKS), service.submit(DVDS), service.submit(TITLES)
            )
            return single, burst

    single, burst = run(main())
    assert all(response.batch_size == 3 for response in burst)
    # One scan pair per document for the whole batch: total pages equal the
    # single-client figure although three clients rode the window.
    assert burst[0].batch_arb_io.pages_read == single.batch_arb_io.pages_read
    assert burst[0].count() == 3 * 7  # books over the whole corpus
    assert burst[1].count() == 3 * 3
    # The per-request result is a single-query collection view.
    assert len(burst[0].result.programs) == 1
    assert [doc.doc_id for doc in burst[0].result.documents] == [
        "doc-0", "doc-1", "doc-2",
    ]


def test_duplicate_queries_share_one_plan(disk_database):
    async def main():
        async with QueryService(disk_database, window=0.05) as service:
            return await asyncio.gather(*[service.submit(BOOKS) for _ in range(3)])

    responses = run(main())
    assert [response.count() for response in responses] == [7, 7, 7]
    assert sum(response.plan_cache_hit for response in responses) == 2
    cache_stats = disk_database.plan_cache.stats()
    assert cache_stats["plans"] == 1


# --------------------------------------------------------------------------- #
# Admission control and lifecycle
# --------------------------------------------------------------------------- #


def test_admission_control_rejects_above_queue_limit(disk_database):
    async def main():
        async with QueryService(
            disk_database, window=0.2, max_pending=2, max_batch=64
        ) as service:
            results = await asyncio.gather(
                *[service.submit(BOOKS) for _ in range(6)], return_exceptions=True
            )
            return results, service.stats().rejected

    results, rejected = run(main())
    overloaded = [r for r in results if isinstance(r, ServiceOverloadedError)]
    answered = [r for r in results if not isinstance(r, BaseException)]
    assert len(overloaded) == 4
    assert rejected == 4
    assert all(error.pending >= 2 for error in overloaded)
    assert [response.count() for response in answered] == [7, 7]


def test_stop_drains_queued_requests(disk_database):
    async def main():
        service = await QueryService(disk_database, window=5.0).start()
        tasks = [asyncio.ensure_future(service.submit(BOOKS)) for _ in range(3)]
        await asyncio.sleep(0)  # let the submits enqueue
        await service.stop()  # must not wait out the 5s window
        return await asyncio.gather(*tasks)

    responses = run(main())
    assert [response.count() for response in responses] == [7, 7, 7]


def test_submit_after_stop_raises(disk_database):
    async def main():
        service = await QueryService(disk_database).start()
        await service.stop()
        with pytest.raises(ServiceClosedError):
            await service.submit(BOOKS)

    run(main())


def test_double_start_raises(disk_database):
    async def main():
        async with QueryService(disk_database) as service:
            with pytest.raises(ServiceError):
                await service.start()

    run(main())


def test_constructor_validation(disk_database):
    with pytest.raises(ServiceError):
        QueryService("not a database")
    with pytest.raises(ServiceError):
        QueryService(disk_database, window=-1)
    with pytest.raises(ServiceError):
        QueryService(disk_database, max_batch=0)
    with pytest.raises(ServiceError):
        QueryService(disk_database, max_pending=0)


@pytest.mark.parametrize("n_workers", [0, -1, True, "2", 2.0, None], ids=repr)
def test_constructor_refuses_a_bad_worker_count(tmp_path, n_workers):
    # Refused up front, as `arb serve --workers 0` must be: not accepted and
    # then failing every collection query.
    collection = Collection.create(str(tmp_path / "corpus"), plan_cache=PlanCache())
    collection.add_document("<a><b/></a>", doc_id="one")
    with pytest.raises(ServiceError, match="n_workers"):
        QueryService(collection, n_workers=n_workers)


# --------------------------------------------------------------------------- #
# Cross-thread submission
# --------------------------------------------------------------------------- #


def test_submit_threadsafe_from_other_threads(disk_database):
    counts = []

    async def main():
        async with QueryService(disk_database, window=0.05) as service:
            def client(query):
                counts.append(service.submit_threadsafe(query).result(timeout=30))

            threads = [
                threading.Thread(target=client, args=(query,))
                for query in (BOOKS, DVDS, TITLES)
            ]
            for thread in threads:
                thread.start()
            # Wait for the thread clients without blocking the service loop.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: [thread.join() for thread in threads]
            )

    run(main())
    assert sorted(response.count() for response in counts) == [3, 7, 7]


def test_submit_threadsafe_requires_running_service(disk_database):
    service = QueryService(disk_database)
    with pytest.raises(ServiceClosedError):
        service.submit_threadsafe(BOOKS)
