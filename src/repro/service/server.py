"""The ops of ``arb serve``: a :class:`QueryService` behind the JSON-lines wire.

Framing, id echo, error envelopes and the stream limit belong to
:mod:`repro.wire`; this module is the op catalogue.  Requests::

    {"id": 7, "query": "QUERY :- V.Label[b];"}
    {"id": 8, "query": "//b", "language": "xpath", "ids": true}
    {"id": 9, "op": "update", "ops": [{"kind": "relabel", "node": 3,
     "label": "x"}]}
    {"op": "stats"}
    {"op": "ping"}

A query is answered with its count and the telemetry of the batch it rode::

    {"id": 7, "ok": true, "count": 3, "batch_size": 5, "coalesced": true,
     "plan_cache_hit": true, "arb_pages_read": 12, ...}

The wire hands over every request line as its own task, so the in-flight
requests of all connections coalesce into shared scan pairs exactly like
in-process callers -- the server is a thin demultiplexer over one
:class:`QueryService`.  The same holds for ``update`` requests when the
service runs with a positive write window (``arb serve --write-window``):
concurrent update lines ride one group commit and share its single WAL
append / fsync pair.

Replication ops
---------------
On-disk database targets additionally speak the generation-shipping
replication protocol (see :mod:`repro.replication`).  A query response
carries the ``generation`` and change ``counter`` of the snapshot its answer
was read from, an update response those it committed, so routers and
clients can reason about freshness, and three
ops drive the replication channel itself::

    {"op": "register_replica", "host": "127.0.0.1", "port": 9001}
    {"op": "install_generation", "snapshot": {...}}
    {"op": "replica_stats"}

``register_replica`` tells a *primary* to ship every future committed
generation to the given replica server; the current generation is shipped
immediately as a catch-up (installation on the replica is idempotent, so
re-registering is always safe).  With ``replication_mode="sync"`` (``arb
serve --replicate sync``) the primary ships *before* acknowledging an
update and the ack carries the fan-out report under ``"replication"``;
with the default ``"async"`` mode the ack returns first and shipping runs
in a background task.

``install_generation`` is the replica-side op: ``snapshot`` is the payload
of :func:`repro.storage.generations.export_generation` -- the pointer
payload plus every generation file wrapped in the WAL's checksummed ARBW
frame and base64-encoded.  The replica verifies every frame, writes the
files with the temp+fsync+replace discipline, swaps its pointer
atomically, refreshes its served snapshot, and answers ``{"ok": true,
"installed": true, "generation": N, "counter": C}`` (``"installed":
false`` for a stale or already-installed snapshot -- the op is
idempotent).  The ship of an update that named a ``"retain"`` carries it as
one optional field, and the replica then prunes its history to that many
generations, as the primary did (a catch-up ship carries none).

``replica_stats`` reports the serving snapshot's ``generation``/
``counter`` plus, on a primary, the per-replica shipping ledger
(``acked_counter``, ships, failures, last error) -- the router's health
and fencing signal.
"""

from __future__ import annotations

import asyncio
import os

from repro.collection.collection import Collection
from repro.collection.manifest import MANIFEST_NAME
from repro.engine import Database
from repro.errors import ReproError, ServiceClosedError, ServiceError
from repro.replication.shipping import ReplicaSet
from repro.service.request import ServiceResponse
from repro.service.service import QueryService
from repro.storage.bufferpool import resolve_pager
from repro.storage.generations import exclusive_writer, install_generation, prune_generations
from repro.storage.update import check_retain, op_from_spec
from repro.wire import DEFAULT_STREAM_LIMIT, LineServer, request_many

__all__ = ["ArbServer", "open_target", "request_many", "serve"]


def open_target(path: str) -> Database | Collection:
    """Open ``path`` as a collection root, an `.arb` base path, or an XML file."""
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            return Collection.open(path)
        # Falling through to Database.open would surface a confusing
        # pointer-file error about "<dir>.arb"; say what was expected.
        raise ServiceError(
            f"cannot serve {path}: it is a directory without a collection "
            f"manifest ({MANIFEST_NAME}); expected a collection root, an "
            f".arb base path, or an .xml file"
        )
    if path.endswith(".xml"):
        return Database.from_xml_file(path)
    return Database.open(path, pager=resolve_pager())


def _response_payload(response: ServiceResponse, *, ids: bool) -> dict:
    arb_io = response.batch_arb_io
    payload = {
        "ok": True,
        "count": response.count(),
        "batch_size": response.batch_size,
        "batch_id": response.batch_id,
        "coalesced": response.coalesced,
        "plan_cache_hit": response.plan_cache_hit,
        "queued_seconds": round(response.queued_seconds, 6),
        "evaluation_seconds": round(response.evaluation_seconds, 6),
        "arb_pages_read": arb_io.pages_read if arb_io is not None else 0,
    }
    if response.snapshot is not None:
        # The generation and change counter of the snapshot this answer was
        # read from (not of whatever the target has been refreshed to since):
        # the freshness signal routers use to fence stale replicas.
        payload["generation"], payload["counter"] = response.snapshot
    if ids:
        selected = response.selected_nodes()
        if not isinstance(selected, list):  # collection: per-document mapping
            payload["selected"] = selected
        else:
            payload["selected"] = {"": selected}
    return payload


class ArbServer(LineServer):
    """Serve a :class:`QueryService` over TCP with the JSON-lines protocol."""

    def __init__(
        self,
        target: Database | Collection,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replication_mode: str = "async",
        stream_limit: int = DEFAULT_STREAM_LIMIT,
        **service_options,
    ):
        if replication_mode not in ("async", "sync"):
            raise ServiceError(
                f"replication_mode must be 'async' or 'sync', "
                f"not {replication_mode!r}"
            )
        super().__init__(self._answer, host=host, port=port, stream_limit=stream_limit)
        self.service = QueryService(target, **service_options)
        self.replication_mode = replication_mode
        #: Replicas registered through ``register_replica``; empty until a
        #: router (or operator) makes this server a primary.
        self.replicas = ReplicaSet()
        self._ship_tasks: set[asyncio.Task] = set()

    async def start(self) -> tuple[str, int]:
        """Start service + listener; returns the bound ``(host, port)``."""
        await self.service.start()
        return await super().start()

    async def stop(self) -> None:
        await super().stop()
        if self._ship_tasks:
            # Let async generation ships finish: a replica must not miss the
            # last committed generation just because the primary shut down.
            await asyncio.gather(*self._ship_tasks, return_exceptions=True)
        await self.service.stop()

    async def _answer(self, message: dict, state=None) -> dict:
        op = message.get("op", "query")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats().as_row()}
        if op == "update":
            return await self._answer_update(message)
        if op == "register_replica":
            return await self._answer_register_replica(message)
        if op == "install_generation":
            return await self._answer_install_generation(message)
        if op == "replica_stats":
            return self._answer_replica_stats()
        if op != "query":
            raise ServiceError(f"unknown op {op!r}")
        query = message.get("query")
        if not isinstance(query, str):
            raise ServiceError("a query request needs a 'query' string")
        response = await self.service.submit(
            query,
            language=message.get("language", "tmnf"),
            query_predicate=message.get("query_predicate"),
        )
        return _response_payload(response, ids=bool(message.get("ids")))

    # ------------------------------------------------------------------ #
    # Replication (generation shipping)
    # ------------------------------------------------------------------ #

    def _target_version(self) -> tuple[int, int] | None:
        """The served snapshot's ``(generation, change_counter)``.

        ``None`` for targets without a generation lineage (in-memory XML,
        collections -- the latter version per document, not per target).
        """
        target = self.service.target
        if isinstance(target, Database) and target.is_on_disk:
            return target.generation, target.disk.change_counter
        return None

    def _replicated_base_path(self) -> str:
        target = self.service.target
        if isinstance(target, Database) and target.is_on_disk:
            return target.disk.logical_base_path
        raise ServiceError(
            "generation shipping needs an on-disk .arb database target "
            "(in-memory XML and collection targets have no generation files "
            "to ship)"
        )

    async def _answer_register_replica(self, message: dict) -> dict:
        host = message.get("host")
        port = message.get("port")
        if not isinstance(host, str) or type(port) is not int or not 1 <= port <= 65535:
            raise ServiceError(
                "register_replica needs 'host' (a string) and 'port' (an integer in 1-65535)"
            )
        base_path = self._replicated_base_path()
        self.replicas.register(host, port)
        # Catch-up ship: the freshly (re-)registered replica gets the current
        # generation immediately.  Installation is idempotent on the replica,
        # so a router can re-register a lagging replica to force a catch-up.
        report = await self.replicas.ship_current(base_path, only=(host, port))
        return {"ok": True, "registered": len(self.replicas), "ship": report}

    async def _answer_install_generation(self, message: dict) -> dict:
        snapshot = message.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ServiceError("install_generation needs a 'snapshot' object")
        retain = message.get("retain")
        check_retain(retain)
        base_path = self._replicated_base_path()
        # Install and refresh each run as a job on the service's single
        # evaluation worker, so the pointer swap and the snapshot advance
        # serialise against in-flight batches: a batch is evaluated entirely
        # before or entirely after the installed generation, never across it.
        # The prune rides the refresh job, after the handle has moved: no
        # batch can be pinned to a generation it deletes.
        result = await self.service.run_on_worker(install_generation, base_path, snapshot)
        generation, counter = await self.service.run_on_worker(self._refresh_and_prune, base_path, retain)
        return {
            "ok": True,
            "installed": bool(result.get("installed")),
            "generation": generation,
            "counter": counter,
        }

    def _refresh_and_prune(self, base_path: str, retain: int | None) -> tuple[int, int]:
        version = self.service.refresh_target_on_worker()
        if retain is not None:
            with exclusive_writer(base_path):
                prune_generations(base_path, retain)
        return version

    def _answer_replica_stats(self) -> dict:
        if not self.service.is_running:
            # A stopping server must not advertise itself as a healthy
            # replica: routers use this op as the health/fencing probe.
            raise ServiceClosedError("the query service is not running")
        version = self._target_version()
        generation, counter = version if version is not None else (0, 0)
        return {
            "ok": True,
            "generation": generation,
            "counter": counter,
            "replication_mode": self.replication_mode,
            "replicas_registered": len(self.replicas),
            "replicas": self.replicas.as_rows(),
            "pending_ships": len(self._ship_tasks),
        }

    def _spawn_ship(self, base_path: str, retain: int | None) -> None:
        """Ship the current generation in the background (async mode)."""
        task = asyncio.ensure_future(self._ship_quietly(base_path, retain))
        self._ship_tasks.add(task)
        task.add_done_callback(self._ship_tasks.discard)

    async def _ship_quietly(self, base_path: str, retain: int | None) -> None:
        try:
            await self.replicas.ship_current(base_path, retain=retain)
        except ReproError:  # per-replica errors are already recorded;
            pass  # an export error must not leak into asyncio's handler

    async def _answer_update(self, message: dict) -> dict:
        specs = message.get("ops")
        if not isinstance(specs, list) or not specs:
            raise ServiceError("an update request needs a non-empty 'ops' list")
        # One request is one declared group, whatever its length; a bad
        # spec, doc_id or "retain" is refused before anything queues.
        result = await self.service.apply(
            [op_from_spec(spec) for spec in specs],
            doc_id=message.get("doc_id"),
            retain_generations=message.get("retain"),
        )
        payload = {
            "ok": True,
            "generation": result.new_generation,
            "counter": result.counter,
            "n_nodes": result.n_nodes,
        }
        if result.n_ops > 1:
            payload["group_size"] = result.n_ops
        if len(self.replicas) and message.get("doc_id") is None:
            # This server is a primary: propagate the committed generation.
            # Sync mode ships before the ack (the ack carries the fan-out
            # report); async mode acks first and ships in the background.
            base_path = self._replicated_base_path()
            retain = message.get("retain")
            if self.replication_mode == "sync":
                payload["replication"] = await self.replicas.ship_current(base_path, retain=retain)
            else:
                self._spawn_ship(base_path, retain)
        return payload


async def serve(
    target_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8723,
    ready_file: str | None = None,
    **service_options,
) -> None:
    """Open ``target_path`` and serve it until cancelled (``arb serve``).

    ``ready_file`` is :meth:`repro.wire.LineServer.run`'s.
    """
    target = open_target(target_path)
    server = ArbServer(target, host=host, port=port, **service_options)
    await server.run("arb serve", ready_file)
