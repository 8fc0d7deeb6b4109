"""``ArbRouter``: fan a JSON-lines query stream across replica servers.

The router is the client-facing tier of the replication topology (``arb
router``).  It speaks exactly the :mod:`repro.wire` protocol on its
listening port (the ops are :mod:`repro.service.server`'s) and forwards
every line to one of the backend ``ArbServer`` processes:

* **reads** (``query`` ops) go to a replica, round-robined and *pinned per
  burst*: all queries a connection has in flight together ride the same
  replica, so a client burst coalesces into one scan pair there instead of
  splintering across the fleet.  Every replica serves the same database
  and snapshot reads never coordinate (the Bailis et al.
  coordination-avoidance argument), so any serving replica is as good as
  any other: a ``doc_id`` on a read is forwarded but does not steer it.
* **writes** (``update`` ops) and every other explicit op are forwarded to
  the owning *primary*, which commits the generation locally and ships the
  resulting files to the replicas (see
  :mod:`repro.replication.shipping`).

Failover: a replica that drops its connection mid-request is marked down
and the read is retried transparently on the next candidate (the remaining
replicas, then the primary itself) -- reads are idempotent, so the client
never sees the failure.  If every candidate that answered shed the read
with ``ServiceOverloadedError``, that reply goes back to the client: it is
backpressure, not an outage.  Updates are retried only when the router is
certain the request was never sent; an update whose connection died *after*
the send surfaces an explicit "outcome unknown" error instead of risking a
double apply.

Health and fencing: a background loop pings every backend with
``replica_stats`` each ``ping_interval``.  A replica whose change counter
is behind the primary's is **fenced** (excluded from read routing, so a
stale snapshot is never served once staleness is observable) and
re-registered with the primary, which ships the current generation as a
catch-up; the next tick unfences it.  A dead replica is reconnected and
re-registered the same way when it comes back.
"""

from __future__ import annotations

import asyncio

from repro.errors import ServiceError
from repro.wire import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_STREAM_LIMIT,
    BackendUnavailableError,
    LineClient,
    LineServer,
)

__all__ = ["ArbRouter", "BackendUnavailableError", "route"]

#: How often the health loop pings backends (seconds).
DEFAULT_PING_INTERVAL = 0.5


class _Backend(LineClient):
    """One upstream ``ArbServer``: a multiplexed connection plus its health."""

    def __init__(self, host: str, port: int, *, stream_limit: int):
        super().__init__(host, port, stream_limit=stream_limit)
        #: Transport-level availability (connection up or presumed
        #: re-openable) and replication-level freshness (a fenced replica is
        #: alive but behind the primary, so reads must not see it).
        self.healthy = True
        self.fenced = False
        #: The change counter the backend last reported via replica_stats.
        self.counter = 0
        self.generation = 0
        self.failures = 0

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "healthy": self.healthy,
            "fenced": self.fenced,
            "generation": self.generation,
            "counter": self.counter,
            "requests": self.requests,
            "failures": self.failures,
        }


class ArbRouter(LineServer):
    """A burst-pinned round-robin front door over replica servers."""

    def __init__(
        self,
        primary: tuple[str, int],
        replicas: list[tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ping_interval: float = DEFAULT_PING_INTERVAL,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        register_replicas: bool = True,
        stream_limit: int = DEFAULT_STREAM_LIMIT,
    ):
        super().__init__(self._dispatch, host=host, port=port, stream_limit=stream_limit)
        self.ping_interval = ping_interval
        self.request_timeout = request_timeout
        self.register_replicas = register_replicas
        self.primary = _Backend(*primary, stream_limit=stream_limit)
        self._replicas = [
            _Backend(*replica, stream_limit=stream_limit) for replica in replicas
        ]
        if not self._replicas:
            raise ServiceError("a router needs at least one replica endpoint")
        self._round_robin = 0
        self._primary_counter = 0
        self._health_task: asyncio.Task | None = None
        self._retries = 0

    # -- lifecycle ------------------------------------------------------ #

    async def start(self) -> tuple[str, int]:
        await super().start()
        if self.register_replicas:
            for backend in self._replicas:
                await self._register_one(backend)
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self.host, self.port

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None
        await super().stop()
        for backend in [*self._replicas, self.primary]:
            await backend.close()

    # -- registration and health ---------------------------------------- #

    async def _register_one(self, backend: _Backend) -> bool:
        """Tell the primary to ship to ``backend`` (catch-up included)."""
        try:
            reply = await self.primary.request(
                {
                    "op": "register_replica",
                    "host": backend.host,
                    "port": backend.port,
                },
                timeout=self.request_timeout,
            )
        except BackendUnavailableError:
            return False
        return bool(reply.get("ok"))

    async def _health_loop(self) -> None:
        while True:
            try:
                await self._health_tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # defensive: health must never kill the router
                pass
            await asyncio.sleep(self.ping_interval)

    async def _health_tick(self) -> None:
        try:
            reply = await self.primary.request(
                {"op": "replica_stats"}, timeout=self.ping_interval * 4
            )
            if reply.get("ok"):
                self.primary.healthy = True
                self.primary.counter = int(reply.get("counter", 0))
                self.primary.generation = int(reply.get("generation", 0))
                self._primary_counter = max(
                    self._primary_counter, self.primary.counter
                )
        except BackendUnavailableError:
            self.primary.healthy = False
        for backend in self._replicas:
            try:
                reply = await backend.request(
                    {"op": "replica_stats"}, timeout=self.ping_interval * 4
                )
            except BackendUnavailableError:
                self._mark_down(backend)
                continue
            if not reply.get("ok"):
                if reply.get("error_type") == "ServiceClosedError":
                    # Gracefully stopping: the transport still answers but
                    # the service behind it is gone.
                    self._mark_down(backend)
                continue
            backend.counter = int(reply.get("counter", 0))
            backend.generation = int(reply.get("generation", 0))
            backend.healthy = True
            if backend.counter < self._primary_counter:
                # Behind the primary: fence it from serving reads and ask
                # the primary for a catch-up ship; the next tick (or the
                # install racing this tick) unfences it.
                backend.fenced = True
                await self._register_one(backend)
            else:
                backend.fenced = False

    def _mark_down(self, backend: _Backend) -> None:
        if backend is self.primary:
            self.primary.healthy = False
            return
        if backend.healthy:
            backend.healthy = False
            backend.failures += 1

    # -- routing --------------------------------------------------------- #

    def _serving(self, backend: _Backend) -> bool:
        return backend.healthy and not backend.fenced

    def _read_candidates(self, state: dict) -> list[_Backend]:
        """Replica preference order for one read, primary as last resort."""
        serving = [b for b in self._replicas if self._serving(b)]
        ordered: list[_Backend] = []
        pinned = state.get("pinned")
        if pinned is None or not self._serving(pinned):
            # Claim the next round-robin slot for this burst *now*,
            # synchronously: every other request the burst already has in
            # flight sees the pin before the first reply returns, so the
            # whole burst coalesces on one replica.
            pinned = None
            if serving:
                pinned = serving[self._round_robin % len(serving)]
                self._round_robin += 1
            state["pinned"] = pinned
        if pinned is not None:
            ordered.append(pinned)
        for backend in serving:  # failover order: every other live replica
            if backend not in ordered:
                ordered.append(backend)
        ordered.append(self.primary)  # last resort: reads at the primary
        return ordered

    async def _route_read(self, message: dict, state: dict) -> dict:
        first_error: BackendUnavailableError | None = None
        shed: dict | None = None
        for backend in self._read_candidates(state):
            try:
                reply = await backend.request(message, timeout=self.request_timeout)
            except BackendUnavailableError as error:
                # Reads are idempotent: mark the backend down and fail over
                # to the next candidate, invisibly to the client.
                self._mark_down(backend)
                self._retries += 1
                if first_error is None:
                    first_error = error
                continue
            error_type = reply.get("error_type")
            if not reply.get("ok") and error_type in (
                "ServiceClosedError",
                "ServiceOverloadedError",
            ):
                # A gracefully stopping server answers in-flight requests
                # with ServiceClosedError before the transport drops; an
                # overloaded one sheds load.  Either way another replica can
                # answer this read -- only the closing one is marked down.
                if error_type == "ServiceClosedError":
                    self._mark_down(backend)
                shed = reply if error_type == "ServiceOverloadedError" else None
                self._retries += 1
                continue
            if backend is not self.primary:
                # Re-pin the burst onto whoever actually answered, so its
                # remaining requests follow the failover instead of
                # re-walking the dead candidate.
                state["pinned"] = backend
            return reply
        if shed is not None:
            # The last reply was backpressure: say so, not "unreachable".
            return shed
        detail = f" (first failure: {first_error})" if first_error else ""
        raise ServiceError(f"no replica or primary is reachable for this query{detail}")

    async def _route_primary(self, message: dict) -> dict:
        """Writes and explicit ops go to the primary; retry only unsent."""
        try:
            return await self.primary.request(message, timeout=self.request_timeout)
        except BackendUnavailableError as error:
            if error.sent and message.get("op") == "update":
                raise ServiceError(
                    "the primary dropped the connection after the update was "
                    "sent; its outcome is unknown (check replica_stats before "
                    "retrying)"
                ) from error
            # Never sent (or idempotent op): one reconnect-and-retry.
            self._retries += 1
            return await self.primary.request(message, timeout=self.request_timeout)

    def _router_stats(self) -> dict:
        return {
            "ok": True,
            "router": True,
            "primary": self.primary.as_row(),
            "replicas": [backend.as_row() for backend in self._replicas],
            "primary_counter": self._primary_counter,
            "retries": self._retries,
        }

    async def _dispatch(self, message: dict, state: dict) -> dict:
        op = message.get("op", "query")
        if op == "ping":
            return {"ok": True, "pong": True, "router": True}
        if op == "router_stats":
            return self._router_stats()
        if op == "query":
            # Per-connection burst pinning: all requests in flight together
            # ride one replica, so a client burst coalesces there into one
            # scan pair.  A new burst starts when the connection goes
            # idle->busy; every request admitted while others are in flight
            # shares the pin.
            if not state.get("inflight"):
                state["pinned"] = None
            state["inflight"] = state.get("inflight", 0) + 1
            try:
                return await self._route_read(message, state)
            finally:
                state["inflight"] -= 1
        return await self._route_primary(message)


async def route(
    primary: tuple[str, int],
    replicas: list[tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = 8722,
    ready_file: str | None = None,
    **options,
) -> None:
    """Run a router until cancelled (``arb router``).

    ``ready_file`` works exactly like ``arb serve``'s: one atomically
    written ``host port`` line once the listener is bound.
    """
    router = ArbRouter(primary, replicas, host=host, port=port, **options)
    detail = f" (primary {router.primary.name}, {len(router._replicas)} replicas)"
    await router.run("arb router", ready_file, detail)
