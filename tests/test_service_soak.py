"""Concurrency soak: hammer one service, assert it never bleeds or deadlocks.

Many clients -- asyncio tasks, OS threads through the thread-safe bridge,
and collection shard workers on thread/process pools -- issue interleaved
requests with distinct expected answers.  The suite asserts

* no deadlock (the per-test timeout turns one into a failure),
* no cross-request result bleed: every response carries exactly the count
  its query is known to select, under any coalescing, and
* plan-cache efficiency: repeated structurally-equal queries hit the shared
  thread-safe cache, so misses stay at the number of distinct queries.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro import Collection, Database, PlanCache
from repro.service import QueryService

# Distinct per-label counts so a bled answer can never masquerade as correct.
DOCUMENT = (
    "<lib>"
    + "<a/>" * 3
    + "<b/>" * 5
    + "<c/>" * 7
    + "<d/>" * 11
    + "</lib>"
)

QUERIES = {
    "QUERY :- V.Label[a];": 3,
    "QUERY :- V.Label[b];": 5,
    "QUERY :- V.Label[c];": 7,
    "QUERY :- V.Label[d];": 11,
}


@pytest.fixture
def disk_database(tmp_path) -> Database:
    database = Database.build(DOCUMENT, str(tmp_path / "doc"))
    database.plan_cache = PlanCache()
    return database


@pytest.mark.timeout(60)
def test_soak_async_clients_no_bleed_no_deadlock(disk_database):
    n_requests = 120
    rng = random.Random(2003)
    workload = [rng.choice(list(QUERIES)) for _ in range(n_requests)]

    async def client(service, query, delay):
        await asyncio.sleep(delay)
        response = await service.submit(query)
        return query, response

    async def main():
        async with QueryService(disk_database, window=0.002, max_batch=16) as service:
            # Staggered arrivals spread the workload over many windows.
            tasks = [
                client(service, query, rng.random() * 0.05)
                for query in workload
            ]
            results = await asyncio.gather(*tasks)
            return results, service.stats()

    results, stats = asyncio.run(main())
    assert len(results) == n_requests
    for query, response in results:
        assert response.count() == QUERIES[query], "cross-request result bleed"
    assert stats.completed == n_requests
    assert stats.failed == 0 and stats.isolation_retries == 0
    # Requests spread over many windows, yet far fewer scans than requests.
    assert 1 <= stats.batches < n_requests
    # The shared cache compiled each distinct query once, everything else hit.
    cache = disk_database.plan_cache.stats()
    assert cache["misses"] == len(QUERIES)
    assert cache["hits"] == n_requests - len(QUERIES)


@pytest.mark.timeout(60)
def test_soak_os_threads_through_threadsafe_bridge(disk_database):
    n_threads = 8
    per_thread = 10
    errors: list[BaseException] = []
    observed: list[tuple[str, int]] = []
    observed_lock = threading.Lock()

    async def main():
        async with QueryService(disk_database, window=0.005, max_batch=32) as service:
            def hammer(seed):
                rng = random.Random(seed)
                for _ in range(per_thread):
                    query = rng.choice(list(QUERIES))
                    try:
                        response = service.submit_threadsafe(query).result(timeout=30)
                        with observed_lock:
                            observed.append((query, response.count()))
                    except BaseException as exc:  # noqa: BLE001 - collected
                        with observed_lock:
                            errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: [thread.join() for thread in threads]
            )
            return service.stats()

    stats = asyncio.run(main())
    assert not errors
    assert len(observed) == n_threads * per_thread
    for query, count in observed:
        assert count == QUERIES[query], "cross-request result bleed"
    assert stats.completed == n_threads * per_thread
    assert stats.failed == 0
    cache = disk_database.plan_cache.stats()
    assert cache["misses"] == len(QUERIES)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.timeout(120)
def test_soak_collection_shard_workers(tmp_path, n_workers):
    # 1 evaluates each burst in the service's worker thread, 2 on processes.
    collection = Collection.create(str(tmp_path / "corpus"), plan_cache=PlanCache())
    n_docs = 4
    for index in range(n_docs):
        collection.add_document(DOCUMENT, doc_id=f"doc-{index}")
    n_requests = 24

    async def main():
        async with QueryService(collection, window=0.01, n_workers=n_workers) as service:
            rng = random.Random(7)
            workload = [rng.choice(list(QUERIES)) for _ in range(n_requests)]
            responses = await asyncio.gather(
                *[service.submit(query) for query in workload]
            )
            return workload, responses, service.stats()

    workload, responses, stats = asyncio.run(main())
    for query, response in zip(workload, responses):
        assert response.count() == n_docs * QUERIES[query], "result bleed"
    assert stats.completed == n_requests
    assert stats.failed == 0 and stats.isolation_retries == 0
