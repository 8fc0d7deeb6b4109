"""Unit and in-process tests of the generation-shipping replication tier.

Covers the export/install snapshot round-trip, the primary's replication
wire ops, the router's routing, failover and backpressure behaviour, and the
``open_target`` directory diagnostic that rode along.
The multi-process kill/restart soak lives in ``test_replication_soak.py``;
the wire contract (framing, ids, ``request_many``) in ``test_wire.py``.
"""

from __future__ import annotations

import asyncio
import base64
import glob
import shutil

import pytest

from repro.engine import Database
from repro.errors import ServiceError, ServiceOverloadedError, StorageError
from repro.plan.cache import PlanCache
from repro.replication import ArbRouter, ReplicaSet
from repro.service import ArbServer, request_many
from repro.service.server import open_target
from repro.storage.build import build_database
from repro.storage.generations import (
    GENERATION_FILE_SUFFIXES,
    export_generation,
    generation_base,
    install_generation,
    list_generations,
    read_pointer,
)
from repro.storage.update import Relabel
from repro.wire import LineServer

DOCUMENT = "<lib><book><t>x</t></book><book><t>y</t></book><dvd/></lib>"


# --------------------------------------------------------------------- #
# Export / install snapshot round-trip
# --------------------------------------------------------------------- #


def _build_pair(tmp_path):
    """A primary base with one committed update, and an empty replica dir."""
    primary = str(tmp_path / "primary" / "db")
    (tmp_path / "primary").mkdir()
    build_database(DOCUMENT, primary)
    replica_dir = tmp_path / "replica"
    replica_dir.mkdir()
    return primary, str(replica_dir / "db")


def test_export_install_round_trip(tmp_path):
    primary, replica = _build_pair(tmp_path)
    snapshot = export_generation(primary)
    assert set(snapshot["files"]) >= {".arb", ".lab", ".meta"}
    report = install_generation(replica, snapshot)
    assert report["installed"]
    pointer = read_pointer(replica)
    assert (pointer.generation, pointer.counter) == (
        snapshot["generation"],
        snapshot["counter"],
    )
    # The replica must answer queries identically to the primary.
    with Database.open(replica) as mirror, Database.open(primary) as original:
        assert (
            mirror.query("//book", language="xpath").selected_nodes()
            == original.query("//book", language="xpath").selected_nodes()
        )


def test_install_is_idempotent_and_refuses_stale(tmp_path):
    primary, replica = _build_pair(tmp_path)
    snapshot = export_generation(primary)
    assert install_generation(replica, snapshot)["installed"]
    # Same counter again: skipped, not rewritten.
    assert not install_generation(replica, snapshot)["installed"]
    # Move the primary forward; the replica must accept the newer snapshot
    # and then refuse the stale one.
    with Database.open(primary) as database:
        database.apply(Relabel(2, "tome"))
    newer = export_generation(primary)
    assert newer["counter"] > snapshot["counter"]
    assert install_generation(replica, newer)["installed"]
    assert not install_generation(replica, snapshot)["installed"]
    pointer = read_pointer(replica)
    assert pointer.counter == newer["counter"]


def test_install_rejects_torn_frames_before_touching_disk(tmp_path):
    primary, replica = _build_pair(tmp_path)
    snapshot = export_generation(primary)
    torn = dict(snapshot, files=dict(snapshot["files"]))
    frame = bytearray(base64.b64decode(torn["files"][".arb"]))
    frame[len(frame) // 2] ^= 0xFF  # flip one payload bit
    torn["files"][".arb"] = base64.b64encode(bytes(frame)).decode("ascii")
    with pytest.raises(StorageError):
        install_generation(replica, torn)
    # No generation data may have been written: the torn frame was detected
    # up front (only the writer-exclusion lock file is allowed to exist).
    leftovers = [p for p in glob.glob(replica + "*") if not p.endswith(".lock")]
    assert not leftovers


def test_install_rejects_malformed_snapshots(tmp_path):
    primary, replica = _build_pair(tmp_path)
    snapshot = export_generation(primary)
    for broken in (
        {},
        dict(snapshot, files={}),
        dict(snapshot, files={".arb": snapshot["files"][".arb"]}),
        dict(snapshot, counter="not-a-number"),
        dict(snapshot, files=dict(snapshot["files"], **{".evil": "AAAA"})),
    ):
        with pytest.raises(StorageError):
            install_generation(replica, broken)


# --------------------------------------------------------------------- #
# Primary-side wire ops
# --------------------------------------------------------------------- #


def _open_served(base):
    database = Database.open(base)
    database.plan_cache = PlanCache()
    return database


def _clone_base(primary, directory):
    directory.mkdir()
    for path in glob.glob(primary + "*"):
        shutil.copy(path, directory)
    return str(directory / "db")


def test_register_replica_ships_catch_up_and_reports(tmp_path):
    primary_base, _ = _build_pair(tmp_path)
    replica_base = _clone_base(primary_base, tmp_path / "r0")

    async def scenario():
        async with (
            ArbServer(_open_served(primary_base), replication_mode="sync") as primary,
            ArbServer(_open_served(replica_base)) as replica,
        ):
            register, stats = await request_many(primary.host, primary.port, [
                {"op": "register_replica", "host": replica.host,
                 "port": replica.port},
                {"op": "replica_stats"},
            ])
            update = (await request_many(primary.host, primary.port, [
                {"op": "update",
                 "ops": [{"kind": "relabel", "node": 2, "label": "tome"}]},
            ]))[0]
            replica_reads = await request_many(replica.host, replica.port, [
                {"query": "//tome", "language": "xpath"},
            ])
            return register, stats, update, replica_reads[0]

    register, stats, update, replica_read = asyncio.run(scenario())
    assert register["ok"] and register["registered"] == 1
    # Registration shipped the current generation as an idempotent catch-up
    # (the clone was already current, so the install was a no-op skip).
    assert register["ship"]["failed"] == 0
    assert stats["ok"] and stats["replication_mode"] == "sync"
    # Sync mode: the update ack carries the fan-out report...
    assert update["ok"] and update["replication"]["shipped"] == 1
    # ...and by ack time the replica serves the new generation.
    assert replica_read["ok"] and replica_read["count"] == 1
    assert replica_read["counter"] == update["counter"]


def test_read_reply_names_the_snapshot_it_read(tmp_path):
    """The reply's generation/counter belong to the answer, not to reply time.

    An update that commits after a read was evaluated but before its payload
    is built refreshes the served handle; the reply must still name the
    snapshot its ids came from, or a router would credit a stale answer with
    a fresh counter.
    """
    base, _ = _build_pair(tmp_path)

    async def scenario():
        async with ArbServer(_open_served(base)) as server:
            before = await server._answer({"op": "replica_stats"}, 0)
            submit = server.service.submit

            async def submit_then_update(*args, **kwargs):
                response = await submit(*args, **kwargs)
                await server.service.apply(Relabel(2, "tome"))
                return response

            server.service.submit = submit_then_update
            stale = await server._answer({"query": "//t", "language": "xpath", "ids": True}, 1)
            server.service.submit = submit
            fresh = await server._answer({"query": "//t", "language": "xpath", "ids": True}, 2)
            return before, stale, fresh

    before, stale, fresh = asyncio.run(scenario())
    assert stale["selected"][""] == [2, 5]  # node 2 was still a <t> in that snapshot
    assert (stale["generation"], stale["counter"]) == (before["generation"], before["counter"])
    assert fresh["selected"][""] == [5]
    assert fresh["counter"] > stale["counter"]


def test_install_generation_wire_op_refreshes_served_snapshot(tmp_path):
    primary_base, _ = _build_pair(tmp_path)
    replica_base = _clone_base(primary_base, tmp_path / "r0")
    with Database.open(primary_base) as database:
        database.apply(Relabel(2, "tome"))
    snapshot = export_generation(primary_base)

    async def scenario():
        async with ArbServer(_open_served(replica_base)) as replica:
            before = (await request_many(replica.host, replica.port, [
                {"query": "//tome", "language": "xpath"},
            ]))[0]
            ack = (await request_many(replica.host, replica.port, [
                {"op": "install_generation", "snapshot": snapshot},
            ]))[0]
            after = (await request_many(replica.host, replica.port, [
                {"query": "//tome", "language": "xpath"},
            ]))[0]
            return before, ack, after

    before, ack, after = asyncio.run(scenario())
    assert before["ok"] and before["count"] == 0
    assert ack["ok"] and ack["installed"]
    assert ack["counter"] == snapshot["counter"]
    # The served snapshot refreshed: queries see the installed generation.
    assert after["ok"] and after["count"] == 1
    assert after["counter"] == snapshot["counter"]


def test_replica_set_records_unreachable_replicas(tmp_path):
    primary_base, _ = _build_pair(tmp_path)

    async def scenario():
        replicas = ReplicaSet(timeout=2.0)
        replicas.register("127.0.0.1", 1)  # nothing listens there
        return await replicas.ship_current(primary_base)

    report = asyncio.run(scenario())
    assert report["shipped"] == 0 and report["failed"] == 1
    (row,) = report["replicas"]
    assert row["failures"] == 1 and "unreachable" in row["last_error"]


@pytest.mark.parametrize("port", [99999, 0, -5, True, "8723"], ids=repr)
def test_register_replica_refuses_a_bad_port_before_registering(tmp_path, port):
    """An endpoint no socket connects to must not enter the ledger: the
    refusal comes before the registration, and the next sync update is an
    ordinary ``ok: true`` with nobody to ship to."""
    base, _ = _build_pair(tmp_path)

    async def scenario():
        async with ArbServer(_open_served(base), replication_mode="sync") as primary:
            return await request_many(primary.host, primary.port, [
                {"op": "register_replica", "host": "127.0.0.1", "port": port},
            ]) + await request_many(primary.host, primary.port, [
                {"op": "replica_stats"},
                {"op": "update", "ops": [{"kind": "relabel", "node": 2, "label": "tome"}]},
            ])

    refusal, stats, update = asyncio.run(scenario())
    assert (refusal["ok"], refusal["error_type"]) == (False, "ServiceError")
    assert "1-65535" in refusal["error"]
    assert stats["replicas_registered"] == 0 and stats["replicas"] == []
    assert update["ok"] and "replication" not in update
    assert read_pointer(base).counter == update["counter"] == 2  # a fresh build is counter 1


@pytest.mark.parametrize("endpoint", [("127.0.0.1", 99999), ("a..b", 8723)], ids=repr)
def test_an_unconnectable_replica_fails_in_the_ledger_not_in_the_ack(tmp_path, endpoint):
    """Whatever stops the connect -- a port ``connect()`` rejects with
    OverflowError, a host the IDNA codec rejects with UnicodeError -- a ship
    failure is a ledger entry and the committed update is acked ``ok``."""
    base, _ = _build_pair(tmp_path)

    async def scenario():
        async with ArbServer(_open_served(base), replication_mode="sync") as primary:
            primary.replicas.register(*endpoint)  # past the wire op's check
            return (await request_many(primary.host, primary.port, [
                {"op": "update", "ops": [{"kind": "relabel", "node": 2, "label": "tome"}]},
            ]))[0]

    update = asyncio.run(scenario())
    assert update["ok"] and update["counter"] == read_pointer(base).counter == 2
    assert (update["replication"]["shipped"], update["replication"]["failed"]) == (0, 1)
    assert "unreachable" in update["replication"]["replicas"][0]["last_error"]


def test_replicas_prune_with_the_retain_their_primary_used(tmp_path):
    """The ship of an update carries the update's ``retain``: after any
    number of updates a replica holds the generations its primary holds."""
    primary_base, _ = _build_pair(tmp_path)
    replica_base = _clone_base(primary_base, tmp_path / "r0")

    async def scenario():
        async with (
            ArbServer(_open_served(primary_base), replication_mode="sync") as primary,
            ArbServer(_open_served(replica_base)) as replica,
        ):
            acks = await request_many(primary.host, primary.port, [
                {"op": "register_replica", "host": replica.host, "port": replica.port},
            ])
            for round_ in range(12):
                acks += await request_many(primary.host, primary.port, [
                    {"op": "update", "retain": 4,
                     "ops": [{"kind": "relabel", "node": 2, "label": f"t{round_}"}]},
                ])
                # The replica keeps answering from the generation it was just
                # moved to, whatever the prune deleted behind it.
                acks += await request_many(replica.host, replica.port, [
                    {"query": f"//t{round_}", "language": "xpath"},
                ])
            return acks

    acks = asyncio.run(scenario())
    assert all(ack["ok"] for ack in acks)
    assert [ack["replication"]["shipped"] for ack in acks[1::2]] == [1] * 12
    assert [(ack["count"], ack["counter"]) for ack in acks[2::2]] == [(1, n) for n in range(2, 14)]
    current = read_pointer(primary_base).generation
    assert read_pointer(replica_base).generation == current
    # retain=4: the current generation, its three predecessors, and generation 0.
    kept = [0, *range(current - 3, current + 1)]
    assert list_generations(replica_base) == list_generations(primary_base) == kept
    for suffix in GENERATION_FILE_SUFFIXES:
        with open(generation_base(primary_base, current) + suffix, "rb") as ours, \
                open(generation_base(replica_base, current) + suffix, "rb") as theirs:
            assert ours.read() == theirs.read(), suffix


@pytest.mark.parametrize("retain", [0, -1, True, "4", 2.0], ids=repr)
def test_install_generation_refuses_a_bad_retain_before_installing(tmp_path, retain):
    primary_base, _ = _build_pair(tmp_path)
    replica_base = _clone_base(primary_base, tmp_path / "r0")
    with Database.open(primary_base) as database:
        database.apply(Relabel(2, "tome"))
    snapshot = export_generation(primary_base)

    async def scenario():
        async with ArbServer(_open_served(replica_base)) as replica:
            return (await request_many(replica.host, replica.port, [
                {"op": "install_generation", "snapshot": snapshot, "retain": retain},
            ]))[0]

    refusal = asyncio.run(scenario())
    assert (refusal["ok"], refusal["error_type"]) == (False, "StorageError")
    assert read_pointer(replica_base).counter == 1 and list_generations(replica_base) == [0]


# --------------------------------------------------------------------- #
# Router routing and failover
# --------------------------------------------------------------------- #


def _replica_fleet(tmp_path, primary_base, count):
    return [
        _clone_base(primary_base, tmp_path / f"r{i}") for i in range(count)
    ]


def test_router_fans_reads_and_forwards_updates(tmp_path):
    primary_base, _ = _build_pair(tmp_path)
    replica_bases = _replica_fleet(tmp_path, primary_base, 2)

    async def scenario():
        async with (
            ArbServer(_open_served(primary_base), replication_mode="sync") as primary,
            ArbServer(_open_served(replica_bases[0])) as r0,
            ArbServer(_open_served(replica_bases[1])) as r1,
            ArbRouter(
                (primary.host, primary.port),
                [(r0.host, r0.port), (r1.host, r1.port)],
                ping_interval=0.1,
            ) as router,
        ):
            reads = await request_many(router.host, router.port, [
                {"query": "//book", "language": "xpath", "ids": True}
                for _ in range(4)
            ])
            update = (await request_many(router.host, router.port, [
                {"op": "update",
                 "ops": [{"kind": "relabel", "node": 2, "label": "tome"}]},
            ]))[0]
            after = await request_many(router.host, router.port, [
                {"query": "//tome", "language": "xpath"} for _ in range(4)
            ])
            stats = (await request_many(router.host, router.port, [
                {"op": "router_stats"},
            ]))[0]
            served = [replica.service.stats().completed for replica in (r0, r1)]
            return reads, update, after, stats, served

    reads, update, after, stats, served = asyncio.run(scenario())
    # Two unpinned bursts, two replicas: the round robin gave each one burst.
    assert served == [4, 4]
    assert all(r["ok"] and r["count"] == 2 for r in reads)
    # A single-connection burst is pinned: exactly one backend saw it, so
    # it coalesced there into one scan pair.
    assert reads[0]["coalesced"] and reads[0]["batch_size"] == 4
    assert update["ok"] and update["replication"]["shipped"] == 2
    assert all(r["ok"] and r["count"] == 1 for r in after)
    assert all(r["counter"] == update["counter"] for r in after)
    assert stats["ok"] and stats["router"]
    assert len(stats["replicas"]) == 2


def test_router_doc_id_reads_ride_the_burst_pin_and_fail_over(tmp_path):
    """A ``doc_id`` on a read does not steer it: one burst, one replica."""
    primary_base, _ = _build_pair(tmp_path)
    replica_bases = _replica_fleet(tmp_path, primary_base, 2)
    burst = [
        {"query": "//book", "language": "xpath", "doc_id": f"doc-{i}"}
        for i in range(6)
    ]

    async def scenario():
        replicas = [ArbServer(_open_served(base)) for base in replica_bases]
        async with ArbServer(_open_served(primary_base)) as primary:
            for replica in replicas:
                await replica.start()
            router = ArbRouter(
                (primary.host, primary.port),
                [(replica.host, replica.port) for replica in replicas],
                ping_interval=5.0,  # no health tick: failover must do it
            )
            await router.start()
            try:
                first = await request_many(router.host, router.port, burst)
                served_first = [r.service.stats().completed for r in replicas]
                # The round robin pins the next burst on the other replica:
                # stop it, so that burst has to fail over.
                idle = replicas[served_first.index(0)]
                await idle.stop()
                second = await request_many(router.host, router.port, burst)
                served = [r.service.stats().completed for r in replicas]
                stats = (await request_many(router.host, router.port, [
                    {"op": "router_stats"},
                ]))[0]
            finally:
                await router.stop()
                for replica in replicas:
                    await replica.stop()
        return first, served_first, second, served, stats

    first, served_first, second, served, stats = asyncio.run(scenario())
    assert all(r["ok"] and r["count"] == 2 for r in first + second)
    # Six different doc_ids, one burst: all six on the pinned replica, where
    # they coalesced into one batch.
    assert sorted(served_first) == [0, 6]
    assert first[0]["batch_size"] == 6
    # The second burst's pin was dead: every read failed over to the one
    # live replica, none reached the primary.
    assert sorted(served) == [0, 12]
    assert stats["retries"] >= 1
    assert sorted(row["healthy"] for row in stats["replicas"]) == [False, True]


def test_router_returns_backpressure_when_every_backend_is_overloaded():
    """All candidates shed the read: the client sees the overload, not an
    outage, so it can back off and retry."""

    async def overloaded(message, state):
        raise ServiceOverloadedError("queue depth limit reached")

    async def scenario():
        stubs = [LineServer(overloaded) for _ in range(3)]
        for stub in stubs:
            await stub.start()
        primary, *replicas = stubs
        try:
            async with ArbRouter(
                (primary.host, primary.port),
                [(replica.host, replica.port) for replica in replicas],
                ping_interval=5.0,
            ) as router:
                return await request_many(router.host, router.port, [
                    {"query": "//book", "language": "xpath"},
                    {"query": "//book", "language": "xpath", "doc_id": "d"},
                ])
        finally:
            for stub in stubs:
                await stub.stop()

    replies = asyncio.run(scenario())
    for reply in replies:
        assert not reply["ok"]
        assert reply["error_type"] == "ServiceOverloadedError"
        assert "queue depth limit" in reply["error"]


def test_router_read_failover_is_invisible_to_clients(tmp_path):
    primary_base, _ = _build_pair(tmp_path)
    replica_bases = _replica_fleet(tmp_path, primary_base, 2)

    async def scenario():
        primary = ArbServer(_open_served(primary_base))
        r0 = ArbServer(_open_served(replica_bases[0]))
        r1 = ArbServer(_open_served(replica_bases[1]))
        await primary.start()
        await r0.start()
        await r1.start()
        router = ArbRouter(
            (primary.host, primary.port),
            [(r0.host, r0.port), (r1.host, r1.port)],
            ping_interval=0.1,
        )
        await router.start()
        try:
            warm = await request_many(router.host, router.port, [
                {"query": "//book", "language": "xpath"} for _ in range(2)
            ])
            assert all(r["ok"] for r in warm)
            # Kill one replica outright; in-flight and future reads must
            # transparently retry on the survivor (or the primary).
            await r0.stop()
            replies = await request_many(router.host, router.port, [
                {"query": "//book", "language": "xpath"} for _ in range(6)
            ])
            # The health loop (or a failed-over read) marks the dead
            # replica down within a tick or two.
            import time
            deadline = time.monotonic() + 10
            while True:
                stats = (await request_many(router.host, router.port, [
                    {"op": "router_stats"},
                ]))[0]
                if any(not row["healthy"] for row in stats["replicas"]):
                    break
                assert time.monotonic() < deadline, stats
                await asyncio.sleep(0.05)
            return replies, stats
        finally:
            await router.stop()
            await r1.stop()
            await primary.stop()

    replies, stats = asyncio.run(scenario())
    assert all(r["ok"] and r["count"] == 2 for r in replies)
    rows = {row["name"]: row for row in stats["replicas"]}
    assert any(not row["healthy"] for row in rows.values())


def test_router_serves_reads_from_primary_when_all_replicas_die(tmp_path):
    primary_base, _ = _build_pair(tmp_path)
    replica_bases = _replica_fleet(tmp_path, primary_base, 1)

    async def scenario():
        primary = ArbServer(_open_served(primary_base))
        r0 = ArbServer(_open_served(replica_bases[0]))
        await primary.start()
        await r0.start()
        router = ArbRouter(
            (primary.host, primary.port),
            [(r0.host, r0.port)],
            ping_interval=0.1,
        )
        await router.start()
        try:
            await r0.stop()
            return await request_many(router.host, router.port, [
                {"query": "//book", "language": "xpath"} for _ in range(3)
            ])
        finally:
            await router.stop()
            await primary.stop()

    replies = asyncio.run(scenario())
    assert all(r["ok"] and r["count"] == 2 for r in replies)


# --------------------------------------------------------------------- #
# Service-layer bugfix regressions (satellites)
# --------------------------------------------------------------------- #


def test_open_target_directory_without_manifest_is_diagnosed(tmp_path):
    """Regression: a bare directory fell through to ``Database.open`` and
    died with a confusing generation-pointer error."""
    bare = tmp_path / "not-a-collection"
    bare.mkdir()
    with pytest.raises(ServiceError, match="without a collection manifest"):
        open_target(str(bare))
