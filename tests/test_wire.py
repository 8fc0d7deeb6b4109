"""The JSON-lines wire contract (:mod:`repro.wire`), against every front door.

``ArbServer`` and ``ArbRouter`` accept connections through the same
``LineServer`` loop, and ``request_many``, the router's backends and
generation shipping connect through the same ``LineClient``; the contract
cases below run against both front doors, the client cases against scripted
fake servers.  Contract: every line gets exactly one typed envelope, never a
traceback, a hang or a log line from asyncio's exception handler.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import json
import shutil
import types

import pytest

from repro.engine import Database
from repro.errors import ServiceError
from repro.plan.cache import PlanCache
from repro.replication import ArbRouter
from repro.replication.router import BackendUnavailableError
from repro.service import ArbServer, request_many
from repro.storage.build import build_database
from repro.wire import LineClient

DOCUMENT = "<lib><book><t>x</t></book><book><t>y</t></book><dvd/></lib>"
FRONT_DOORS = ("server", "router")
READ = {"query": "//book", "language": "xpath"}
UPDATE = {"op": "update", "ops": [{"kind": "relabel", "node": 2, "label": "tome"}]}


def _served(base: str) -> Database:
    database = Database.open(base)
    database.plan_cache = PlanCache()
    return database


@contextlib.asynccontextmanager
async def front_door(kind: str, tmp_path, document: str = DOCUMENT, **options):
    """A started ``ArbServer``, or an ``ArbRouter`` over a primary + 1 replica.

    ``options`` go to the door itself.
    """
    (tmp_path / "primary").mkdir()
    base = str(tmp_path / "primary" / "db")
    build_database(document, base)
    async with contextlib.AsyncExitStack() as stack:
        if kind == "server":
            yield await stack.enter_async_context(ArbServer(_served(base), **options))
            return
        primary = await stack.enter_async_context(ArbServer(_served(base)))
        (tmp_path / "replica").mkdir()
        for path in glob.glob(base + "*"):
            shutil.copy(path, tmp_path / "replica")
        replica = await stack.enter_async_context(
            ArbServer(_served(str(tmp_path / "replica" / "db")))
        )
        yield await stack.enter_async_context(
            ArbRouter(
                (primary.host, primary.port),
                [(replica.host, replica.port)],
                ping_interval=0.1,
                **options,
            )
        )


def run_recording(scenario) -> list[dict]:
    """Run ``scenario()`` to completion; what asyncio's handler was told."""
    recorded: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: recorded.append(context)
        )
        await scenario()

    asyncio.run(main())  # loop teardown included: late cancellations count
    return recorded


async def exchange(endpoint, data: bytes, n_replies: int) -> list[dict]:
    """Write raw ``data`` on a fresh connection, read ``n_replies`` lines."""
    reader, writer = await asyncio.open_connection(endpoint.host, endpoint.port)
    try:
        writer.write(data)
        await writer.drain()
        lines = [
            await asyncio.wait_for(reader.readline(), 30) for _ in range(n_replies)
        ]
    finally:
        writer.close()
        await writer.wait_closed()
    return [json.loads(line) for line in lines]


def lines(*messages) -> bytes:
    return b"".join(json.dumps(message).encode() + b"\n" for message in messages)


# --------------------------------------------------------------------- #
# The accepting side: one contract for ArbServer and ArbRouter
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", FRONT_DOORS)
def test_wire_contract(kind, tmp_path):
    async def scenario():
        async with front_door(kind, tmp_path) as door:
            # Blank lines are skipped: one request, one reply, then silence.
            reader, writer = await asyncio.open_connection(door.host, door.port)
            writer.write(b"\n   \n" + lines({"op": "ping", "id": 1}) + b"\r\n")
            assert json.loads(await reader.readline())["pong"]
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readline(), 0.2)
            # A client that disconnects mid-burst (no reads, no close
            # handshake) leaves the next connection served.
            writer.write(lines(*[READ] * 8))
            writer.close()

            # Malformed and non-object JSON: a `bad request` envelope each.
            garbage = [b"{nope", b"[1]", b"7", b'"x"', b'{"id": 3, "query": 7}']
            replies = await exchange(door, b"\n".join(garbage) + b"\n", len(garbage))
            assert all(not reply["ok"] and reply["error_type"] for reply in replies)
            malformed = [reply for reply in replies if reply["id"] is None]
            assert len(malformed) == 4
            assert all(r["error"].startswith("bad request") for r in malformed)
            assert [r["id"] for r in replies if r["id"] is not None] == [3]

            # String, null and duplicate ids are echoed verbatim.
            ids = ["abc", None, 5, 5, {"nested": [1]}]
            replies = await exchange(
                door, lines(*({"op": "ping", "id": i} for i in ids)), len(ids)
            )
            assert sorted(map(repr, ids)) == sorted(repr(r["id"]) for r in replies)
            assert all(reply["ok"] for reply in replies)

            # 64 pipelined lines: each answered exactly once, in any order.
            burst = [dict(READ, id=i) for i in range(64)]
            replies = await exchange(door, lines(*burst), 64)
            assert sorted(reply["id"] for reply in replies) == list(range(64))
            assert all(reply["ok"] and reply["count"] == 2 for reply in replies)

            # request_many: colliding and missing caller ids neither hang the
            # client nor leak its wire ids; an anonymous line gets its index.
            replies = await request_many(door.host, door.port, [
                {"query": "QUERY :- V.Label[book];"},
                {"query": "QUERY :- V.Label[dvd];", "id": 0},  # collides
                {"query": "QUERY :- V.Label[t];", "id": 0},    # twice
                {"op": "ping"},
            ])
            assert [reply.get("count") for reply in replies] == [2, 1, 2, None]
            assert [reply["id"] for reply in replies] == [0, 0, 0, 3]

    assert run_recording(scenario) == []


@pytest.mark.parametrize("kind", FRONT_DOORS)
def test_oversized_request_line_gets_one_envelope(kind, tmp_path):
    """Regression: ``readline`` raised ValueError out of the connection task --
    asyncio logged a traceback and the client saw a bare EOF."""

    async def scenario():
        async with front_door(kind, tmp_path, stream_limit=1024) as door:
            reader, writer = await asyncio.open_connection(door.host, door.port)
            # Long enough to still be arriving when the server answers: the
            # envelope must survive the hang-up (no reset over unread input).
            writer.write(lines({"query": "//" + "b" * 1_000_000, "language": "xpath"}))
            (reply,) = [json.loads(line) async for line in reader]  # then EOF
            writer.close()
            assert reply["id"] is None and not reply["ok"]
            assert reply["error_type"] == "ServiceError"
            assert "exceeds 1024 bytes" in reply["error"]
            (pong,) = await exchange(door, lines({"op": "ping"}), 1)
            assert pong["ok"]

    assert run_recording(scenario) == []


@pytest.mark.parametrize("kind", FRONT_DOORS)
def test_stop_waits_for_its_connections(kind, tmp_path):
    """Regression: ``stop()`` returned while a handler was still closing its
    writer; loop teardown cancelled it and asyncio logged the CancelledError."""

    async def scenario():
        async with front_door(kind, tmp_path) as door:
            reader, writer = await asyncio.open_connection(door.host, door.port)
            writer.write(lines({"op": "ping"}))
            assert json.loads(await reader.readline())["ok"]
            writer.close()  # not awaited: the server side is mid-close at stop()
            idle = await asyncio.open_connection(door.host, door.port)
        # stop() hung up on the idle connection rather than leaving it open.
        assert await asyncio.wait_for(idle[0].readline(), 10) == b""
        idle[1].close()

    assert run_recording(scenario) == []


def test_reply_line_over_64k_reaches_the_client(tmp_path):
    """Regression: ``request_many`` connected with asyncio's 64 KiB default
    limit and died with a raw ValueError on any longer reply line."""
    document = "<a>" + "<b/>" * 30_000 + "</a>"

    async def scenario():
        async with front_door("server", tmp_path, document) as door:
            return await request_many(door.host, door.port, [
                {"query": "//b", "language": "xpath", "ids": True},
            ])

    (reply,) = asyncio.run(scenario())
    assert reply["ok"] and len(reply["selected"][""]) == 30_000


# --------------------------------------------------------------------- #
# The connecting side: LineClient against scripted servers
# --------------------------------------------------------------------- #


@contextlib.asynccontextmanager
async def scripted_server(script):
    """A listener awaiting ``script(writer, message)`` per request line."""
    received: list[dict] = []

    async def connection(reader, writer):
        with contextlib.suppress(ConnectionError):
            async for line in reader:
                received.append(json.loads(line))
                await script(writer, received[-1])
                await writer.drain()
        writer.close()

    server = await asyncio.start_server(connection, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        yield types.SimpleNamespace(host=host, port=port, received=received)
    finally:
        server.close()
        await server.wait_closed()


@pytest.mark.parametrize(
    "line, complaint",
    [
        # The server failed before it could parse the id (a malformed line).
        (b'{"ok": false, "error": "bad line"}', "id-less reply .*bad line"),
        (b'{"id": 999, "ok": true}', "unsolicited"),
        (b'{"id": "0", "ok": true}', "unsolicited"),
        (b"HTTP/1.1 400 Bad Request\r", "undecodable reply"),
        (b"[1]", "undecodable reply"),
    ],
)
def test_client_fails_fast_on_a_reply_it_cannot_match(line, complaint):
    """Such a reply must raise at once -- not be buried under a wrong key,
    skipped while the caller waits out a timeout, or escape as a raw
    JSONDecodeError."""

    async def script(writer, message):
        writer.write(line + b"\n")

    async def scenario():
        async with scripted_server(script) as server:
            with pytest.raises(ServiceError, match=complaint) as caught:
                await asyncio.wait_for(
                    request_many(server.host, server.port, [READ, READ]), 10
                )
            assert caught.value.sent

    asyncio.run(scenario())


def test_client_says_whether_the_request_left():
    async def hang_up(writer, message):
        writer.close()

    async def scenario():
        async with scripted_server(hang_up) as server:
            client = LineClient(server.host, server.port)
            with pytest.raises(BackendUnavailableError, match="dropped") as after:
                await client.request(READ)
            # Reconnect on the next request; the same fate, not a dead client.
            with pytest.raises(BackendUnavailableError):
                await client.request(READ)
            assert len(server.received) == 2
        with pytest.raises(BackendUnavailableError, match="unreachable") as before:
            await client.request(READ)
        await client.close()
        return after.value.sent, before.value.sent

    assert asyncio.run(scenario()) == (True, False)


def test_client_drops_the_late_reply_of_a_request_it_gave_up_on():
    async def slow_first(writer, message):
        if message["id"] == 0:
            await asyncio.sleep(0.3)
        writer.write(lines({"id": message["id"], "ok": True, "n": message["n"]}))

    async def scenario():
        async with scripted_server(slow_first) as server:
            client = LineClient(server.host, server.port)
            with pytest.raises(BackendUnavailableError, match="did not answer") as slow:
                await client.request({"n": 0}, timeout=0.05)
            assert slow.value.sent
            # The late reply to wire id 0 arrives first and is dropped; the
            # connection and the request behind it are unharmed.
            reply = await client.request({"n": 1, "id": "mine"}, timeout=10)
            await client.close()
            return reply

    assert asyncio.run(scenario()) == {"id": "mine", "ok": True, "n": 1}


# --------------------------------------------------------------------- #
# At-most-once update application across the router (BackendUnavailableError.sent)
# --------------------------------------------------------------------- #


async def _fake_primary(writer, message):
    if message.get("op") == "update":
        writer.close()  # the update arrived; its answer never will
    else:
        writer.write(lines({"id": message["id"], "ok": True, "counter": 1}))


def test_router_never_resends_an_update_that_left(tmp_path):
    async def scenario():
        async with scripted_server(_fake_primary) as primary:
            router = ArbRouter(
                (primary.host, primary.port), [(primary.host, primary.port)],
                register_replicas=False, ping_interval=30,
            )
            async with router:
                (reply,) = await request_many(router.host, router.port, [UPDATE])
                # The next request re-opens the connection the update killed.
                (stats,) = await request_many(router.host, router.port, [{"op": "stats"}])
            updates = [m for m in primary.received if m.get("op") == "update"]
            return reply, stats, len(updates)

    reply, stats, n_updates = asyncio.run(scenario())
    assert not reply["ok"] and "outcome is unknown" in reply["error"]
    assert n_updates == 1
    assert stats["ok"]


def test_router_retries_once_an_update_that_never_left(tmp_path):
    async def scenario():
        async with front_door("router", tmp_path) as router:
            request = router.primary.request
            refusals = []

            async def refuse_once(message, **options):
                if message.get("op") == "update" and not refusals:
                    refusals.append(message)
                    raise BackendUnavailableError("refused", sent=False)
                return await request(message, **options)

            router.primary.request = refuse_once
            update, stats = await request_many(
                router.host, router.port, [UPDATE, {"op": "router_stats"}]
            )
            return update, stats, len(refusals)

    update, stats, n_refusals = asyncio.run(scenario())
    assert update["ok"] and update["counter"] == 2  # applied exactly once
    assert n_refusals == 1 and stats["retries"] == 1


# --------------------------------------------------------------------- #
# Shipping to an endpoint that is not a replica
# --------------------------------------------------------------------- #


def test_sync_primary_acks_a_committed_update_when_a_replica_answers_garbage(tmp_path):
    """Regression: JSONDecodeError escaped ``ship_snapshot`` / ``_ship_one``,
    so the primary answered a *committed* update ``ok: false`` -- an
    invitation to apply it twice."""

    async def http(writer, message):
        writer.write(b"HTTP/1.1 400 Bad Request\r\n")

    async def scenario():
        async with (
            scripted_server(http) as wrong_port,
            front_door("server", tmp_path, replication_mode="sync") as primary,
        ):
            replies = []
            for burst in (
                [{"op": "register_replica", "host": wrong_port.host,
                  "port": wrong_port.port}],
                [UPDATE],
                [{"op": "replica_stats"}, {"query": "//tome", "language": "xpath"}],
            ):
                replies += await asyncio.wait_for(
                    request_many(primary.host, primary.port, burst), 10
                )
            return replies

    register, update, stats, read = asyncio.run(scenario())
    assert register["ok"] and register["ship"]["failed"] == 1
    assert update["ok"] and update["replication"]["failed"] == 1
    (row,) = stats["replicas"]
    assert row["failures"] == 2 and "undecodable" in row["last_error"]
    assert read["count"] == 1 and read["counter"] == update["counter"] == 2
