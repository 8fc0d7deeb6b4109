"""The JSON-lines client of the two wire workloads.

One asyncio process, one connection per schedule entry, each a **closed
loop**: a burst of pipelined lines goes out, and the next burst is sent only
after every reply of the previous one arrived.  The client records what it
sent and what came back; the checks in :mod:`.workloads` run afterwards.
"""

from __future__ import annotations

import asyncio
import json
import time

from .tracing import UNTRACED_EVERY, Tracer

__all__ = ["Connection", "Reply", "run_closed_loops"]

#: No reply may take longer; a wedged server fails the run instead of hanging it.
REPLY_TIMEOUT = 60.0
STREAM_LIMIT = 16 * 1024 * 1024

_UNTRACED = Tracer()


class Reply(dict):
    """One reply payload plus the client's own measurements of it.

    Keys added by the client: ``_sent`` / ``_received`` (``perf_counter``
    stamps; a line is timed from the moment its burst was written),
    ``_bytes``, ``_decode_s``, ``_request`` (the message sent) and, in the
    closed loops, ``_conn`` / ``_burst``.
    """

    @property
    def latency(self) -> float:
        return self["_received"] - self["_sent"]

    @property
    def is_update(self) -> bool:
        return self["_request"].get("op") == "update"


class Connection:
    """One client connection speaking the server's JSON-lines protocol."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port, limit=STREAM_LIMIT))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the server may already be gone; nothing is left to flush

    async def burst(self, lines: list[dict], tracer: Tracer = _UNTRACED, request_id=None) -> list[Reply]:
        """Write ``lines`` back to back, then read one reply per line."""
        payload = b"".join(
            json.dumps({**line, "id": index}).encode("utf-8") + b"\n"
            for index, line in enumerate(lines)
        )
        sent = time.perf_counter()
        self._writer.write(payload)
        await self._writer.drain()
        burst_span = tracer.add("client.burst", sent, sent, None, request_id)
        replies: list[Reply] = []
        while len(replies) < len(lines):
            raw = await asyncio.wait_for(self._reader.readline(), REPLY_TIMEOUT)
            received = time.perf_counter()
            if not raw:
                raise ConnectionError("the server closed the connection mid-burst")
            reply = Reply(json.loads(raw))
            decoded = time.perf_counter()
            reply.update(_sent=sent, _received=received, _bytes=len(raw),
                         _decode_s=decoded - received, _request=lines[reply["id"]])
            replies.append(reply)
            if burst_span is not None:
                tracer.add("client.request", sent, received, burst_span, request_id)
                tracer.add("client.json_decode", received, decoded, burst_span, request_id)
                burst_span["end"] = decoded
        return replies

    async def request(self, message: dict) -> Reply:
        return (await self.burst([message]))[0]


async def run_closed_loops(
    host: str, port: int, schedule: list[list[list[dict]]], warmup: list[dict], *,
    seconds: float | None, rounds: int | None, tracer: Tracer | None,
) -> tuple[list[Reply], float]:
    """Drive every connection's bursts as a closed loop; ``(replies, wall)``.

    Each connection first sends the read-only ``warmup`` burst (untimed, so
    plans are compiled and pages are hot), then whole bursts until
    ``seconds`` are up or ``rounds`` bursts are done.  With a ``tracer``
    every ``UNTRACED_EVERY``-th burst goes unrecorded, so the same run
    prices the tracing (replies carry ``_traced``).
    """
    connections = [await Connection.open(host, port) for _ in schedule]
    replies: list[Reply] = []
    try:
        for connection in connections:
            await connection.burst(warmup)
        started = time.perf_counter()

        async def loop(conn: int) -> None:
            bursts = schedule[conn]
            limit = min(len(bursts), rounds) if rounds is not None else len(bursts)
            for burst in range(limit):
                if seconds is not None and burst >= 2 and time.perf_counter() - started >= seconds:
                    break
                traced = tracer is not None and burst % UNTRACED_EVERY != 0
                for reply in await connections[conn].burst(
                    bursts[burst], tracer if traced else _UNTRACED, f"c{conn}-b{burst}"
                ):
                    reply.update(_conn=conn, _burst=burst, _traced=traced)
                    replies.append(reply)

        await asyncio.gather(*(loop(conn) for conn in range(len(schedule))))
        wall = time.perf_counter() - started
    finally:
        for connection in connections:
            await connection.close()
    return replies, wall
