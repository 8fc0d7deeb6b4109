"""The JSON-lines wire: one server loop and one pipelined client.

``arb serve``, ``arb router``, generation shipping and ``arb client`` all
speak the same deliberately small protocol, and this module is its only
implementation: one JSON object per line in each direction.  A response
echoes the request's ``id`` verbatim (``null`` when it had none or could not
be parsed) and carries either the handler's payload or a clean error::

    {"id": 7, "ok": true, "count": 3, ...}
    {"id": 8, "ok": false, "error": "line 1: ...", "error_type": "TMNFSyntaxError"}

A :class:`~repro.errors.ReproError` raised by the handler is reported under
its own type; anything else -- malformed JSON, a line that is not an object,
a field of the wrong type -- as ``"error": "bad request: ..."``.  Never a
traceback, and never a dropped connection, with one exception: a line longer
than the stream limit is answered once (``"id": null``, ``ServiceError``)
and then hung up on, because the rest of that line is still in flight and
the stream cannot be resynchronised.  Blank lines are skipped.

Every request line is handled as its own task, so the in-flight requests of
one connection (and of concurrent connections) reach the handler together,
and answers go out in completion order, not arrival order.
:class:`LineClient` is the matching multiplexed client.  What the ops *mean*
is the handler's business: :mod:`repro.service.server` has the catalogue.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.errors import ReproError, ServiceError
from repro.storage.generations import atomic_write_text

__all__ = ["BackendUnavailableError", "DEFAULT_STREAM_LIMIT", "LineClient", "LineServer", "request_many"]

#: StreamReader buffer limit of every connection, accepting or connecting.
#: The default asyncio limit (64 KiB) is far too small for a JSON line
#: carrying a base64-encoded generation, or a long list of selected ids.
DEFAULT_STREAM_LIMIT = 256 * 1024 * 1024


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _failure(request_id, error_type: str, text: str) -> dict:
    return {"id": request_id, "ok": False, "error": text, "error_type": error_type}


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - peer already gone
        pass


class LineServer:
    """Listen, read request lines, answer each through ``handler``.

    ``handler(message, state)`` is awaited once per request object and
    returns the reply payload (without ``id``); ``state`` is a dict private
    to the connection the line arrived on.
    """

    def __init__(
        self, handler, *, host: str = "127.0.0.1", port: int = 0, stream_limit: int = DEFAULT_STREAM_LIMIT
    ):
        self.host = host
        self.port = port
        self.stream_limit = stream_limit
        self._handler = handler
        self._server: asyncio.AbstractServer | None = None
        #: Connection task -> (its writer, its in-flight request tasks).
        self._connections: dict[asyncio.Task, tuple] = {}

    async def start(self) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=self.stream_limit
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, answer what is in flight, hang up, wait for it.

        Returning while a connection task is still closing would leave it to
        be cancelled at loop teardown, which asyncio logs as an error.
        """
        if self._server is None:
            return
        self._server.close()
        connections = dict(self._connections)
        in_flight = [task for _, requests in connections.values() for task in requests]
        await asyncio.gather(*in_flight, return_exceptions=True)
        for writer, _ in connections.values():
            writer.close()  # EOF for the read loop, which then finishes normally
        await asyncio.gather(*connections, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("the listener is not started")
        await self._server.serve_forever()

    async def run(self, label: str, ready_file: str | None, detail: str = "") -> None:
        """Start, announce, serve until cancelled, stop (``arb serve|router``).

        ``ready_file``, when given, receives one line ``host port`` once the
        listener is bound -- the hook scripts and tests use to discover an
        ephemeral port.  It is written atomically (temp file + rename): an
        in-place write would let a polling watcher read the file *between*
        create and write and see it empty, or -- re-announcing after a
        restart -- see a torn mix of old and new endpoint.
        """
        host, port = await self.start()
        print(f"{label}: listening on {host}:{port}{detail}", flush=True)
        if ready_file:
            atomic_write_text(ready_file, f"{host} {port}\n")
        try:
            await self.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - interactive shutdown
            pass
        finally:
            await self.stop()

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()

        async def send(payload: dict) -> None:
            async with write_lock:
                writer.write(_encode(payload))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):  # pragma: no cover - client gone
                    pass

        state: dict = {}
        requests: set[asyncio.Task] = set()
        self._connections[asyncio.current_task()] = (writer, requests)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than the stream limit
                    text = f"request line exceeds {self.stream_limit} bytes"
                    await send(_failure(None, "ServiceError", text))
                    # Hanging up on input still arriving would reset the
                    # connection and could destroy the envelope before the
                    # client reads it: swallow input until the client is quiet.
                    with contextlib.suppress(TimeoutError, ConnectionError, OSError):
                        while await asyncio.wait_for(reader.read(1 << 16), 1.0):
                            pass
                    break
                except (ConnectionError, OSError):  # abnormal disconnect
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                # One task per request line: later lines must not wait for
                # earlier answers, or they could never share a window.
                task = asyncio.ensure_future(self._handle_line(line, send, state))
                requests.add(task)
                task.add_done_callback(requests.discard)
        finally:
            # Let in-flight requests finish (their writes fail quietly if the
            # client is gone) before closing; abandoning them would leak
            # exceptions into asyncio's default handler.
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
            await _close(writer)
            del self._connections[asyncio.current_task()]

    async def _handle_line(self, line: bytes, send, state: dict) -> None:
        request_id = None
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise TypeError("a request is one JSON object per line")
            request_id = message.get("id")
            payload = {"id": request_id, **await self._handler(message, state)}
        except ReproError as error:
            payload = _failure(request_id, type(error).__name__, str(error))
        except Exception as error:  # malformed JSON, bad field types, ...
            text = f"bad request: {error}"
            payload = _failure(request_id, type(error).__name__, text)
        await send(payload)


class BackendUnavailableError(ServiceError):
    """A client connection failed; ``sent`` says whether the request left."""

    def __init__(self, message: str, *, sent: bool):
        self.sent = sent
        super().__init__(message)


class LineClient:
    """One multiplexed connection to a :class:`LineServer`.

    Any number of :meth:`request` calls may be in flight together; the
    connection is opened by the first one and re-opened by the next one
    after a failure.
    """

    def __init__(self, host: str, port: int, *, stream_limit: int = DEFAULT_STREAM_LIMIT):
        self.host = host
        self.port = int(port)
        self.name = f"{host}:{port}"
        self.stream_limit = stream_limit
        #: Request lines that left on this client's connections.
        self.requests = 0
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._send_lock = asyncio.Lock()

    async def _ensure_connected(self) -> None:
        if (
            self._writer is not None
            and not self._writer.is_closing()
            # A dead read loop means replies can never arrive on this
            # connection, even if the transport still accepts writes --
            # a request sent over it would hang on its future.
            and not self._read_task.done()
        ):
            return
        await self.close()
        try:
            reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=self.stream_limit
            )
        except (OSError, OverflowError, ValueError) as error:
            # Not only a refused or unroutable connection: a port outside
            # 0-65535 is an OverflowError and a host the IDNA codec rejects a
            # ValueError.  Nothing was sent either way, and the caller's
            # failure handling (ship ledger, router failover) keys on this type.
            raise BackendUnavailableError(f"{self.name} is unreachable: {error}", sent=False) from error
        self._read_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        reason = f"{self.name} dropped the connection"
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    reply = json.loads(line)
                    reply_id = reply.get("id")
                except (ValueError, AttributeError):
                    reason = f"{self.name} sent an undecodable reply: {line[:80]!r}"
                    break
                future = self._pending.pop(reply_id, None)
                if future is not None:
                    if not future.done():
                        future.set_result(reply)
                elif type(reply_id) is not int or not 0 <= reply_id < self._next_id:
                    # Not an id this client ever sent (one it gave up on is
                    # merely late).  An id-less reply means the server failed
                    # before it could parse the id -- the stream is corrupt --
                    # and waiting on would hang every caller on an answer that
                    # cannot be matched; fail them all now instead.
                    detail = reply.get("error") or json.dumps(reply)
                    reason = f"{self.name} sent an unsolicited or id-less reply (id={reply_id!r}): {detail}"
                    break
        except ValueError:  # longer than the stream limit
            reason = f"{self.name} sent a reply line over {self.stream_limit} bytes"
        except (ConnectionError, OSError):
            pass
        finally:
            self._fail_pending(reason)

    def _fail_pending(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(BackendUnavailableError(reason, sent=True))

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()  # its way out fails whatever is pending
            await asyncio.gather(self._read_task, return_exceptions=True)
            self._read_task = None
        if self._writer is not None:
            await _close(self._writer)
            self._writer = None

    async def request(self, message: dict, *, timeout: float | None = None) -> dict:
        """Send ``message`` and await its reply, which echoes ``message``'s id.

        On the wire the id is this client's own counter -- always unique, so
        a duplicate or colliding caller-supplied id can never make two
        answers land on one pending key; the caller's id is restored on the
        way out.  Raises :class:`BackendUnavailableError`.
        """
        async with self._send_lock:
            await self._ensure_connected()
            wire_id = self._next_id
            self._next_id += 1
            future = asyncio.get_running_loop().create_future()
            self._pending[wire_id] = future
            try:
                self._writer.write(_encode({**message, "id": wire_id}))
                await self._writer.drain()
            except (ConnectionError, OSError) as error:
                self._pending.pop(wire_id, None)
                await self.close()
                reason = f"{self.name} refused the request: {error}"
                raise BackendUnavailableError(reason, sent=False) from error
        self.requests += 1
        try:
            reply = await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._pending.pop(wire_id, None)
            reason = f"{self.name} did not answer within {timeout}s"
            raise BackendUnavailableError(reason, sent=True) from None
        reply["id"] = message.get("id")
        return reply


async def request_many(host: str, port: int, messages: list[dict]) -> list[dict]:
    """Send ``messages`` concurrently over one connection; answers in order.

    A message without an ``id`` is answered under its list index; the
    returned list is aligned with the input whatever order the server
    answered in.  This is the client used by ``arb client`` and the tests.
    """
    client = LineClient(host, port)
    try:
        # Every line leaves before the first answer is awaited, so the server
        # can coalesce the burst.
        replies = await asyncio.gather(*(client.request(m) for m in messages))
    finally:
        await client.close()
    for index, (message, reply) in enumerate(zip(messages, replies)):
        if "id" not in message:
            reply["id"] = index
    return replies
