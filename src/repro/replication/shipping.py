"""The generation-shipping channel between a primary and its replicas.

Replication in this system is file shipping plus a pointer bump -- no log
replay.  A committed update already produced a complete immutable
generation (``.arb``/``.lab``/``.meta`` and optionally ``.idx``) next to an
atomically-swapped ``.gen`` pointer, so propagating it to a replica is:

1. :func:`repro.storage.generations.export_generation` snapshots the
   current generation -- every file wrapped in the WAL's checksummed ARBW
   frame and base64-encoded, plus the raw pointer payload;
2. the snapshot travels as one ``{"op": "install_generation"}`` JSON line
   over an ordinary server connection (:func:`ship_snapshot`);
3. the replica verifies every frame, writes the files with the temp +
   fsync + ``os.replace`` discipline, swaps its own pointer and refreshes
   its served snapshot
   (:func:`repro.storage.generations.install_generation`).

:class:`ReplicaSet` is the primary-side ledger: which replicas are
registered, which change counter each of them last acknowledged, and what
the last shipping error was.  ``mode="sync"`` ships before the update is
acknowledged to the writer (the ack then carries the fan-out report);
``mode="async"`` (the default) acknowledges first and ships in a background
task.  Either way a replica that cannot be reached stays registered with
the error recorded -- shipping is at-least-once and installation is
idempotent, so the next update (or a router-triggered re-registration)
catches the replica up.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.storage.generations import export_generation
from repro.wire import DEFAULT_STREAM_LIMIT, LineClient

__all__ = [
    "DEFAULT_SHIP_TIMEOUT",
    "DEFAULT_STREAM_LIMIT",
    "ReplicaInfo",
    "ReplicaSet",
    "ship_snapshot",
]

#: How long one replica may take to install a shipped generation.
DEFAULT_SHIP_TIMEOUT = 60.0


async def ship_snapshot(
    host: str,
    port: int,
    snapshot: dict,
    *,
    retain: int | None = None,
    timeout: float = DEFAULT_SHIP_TIMEOUT,
) -> dict:
    """Send one generation snapshot to one replica server; its ack payload.

    ``retain`` is the shipped update's own ``retain``: the replica prunes its
    history to that many generations after installing, as the primary did
    after committing (``None``, and every catch-up ship, prunes nothing).

    Raises :class:`~repro.errors.ServiceError` when the replica is
    unreachable, closes mid-install, answers something that is not a reply,
    or refuses the snapshot.
    """
    message = {"op": "install_generation", "snapshot": snapshot}
    if retain is not None:
        message["retain"] = retain
    client = LineClient(host, port)
    try:
        reply = await client.request(message, timeout=timeout)
    finally:
        await client.close()
    if not reply.get("ok"):
        raise ServiceError(
            f"replica {host}:{port} refused the generation: "
            f"{reply.get('error', 'unknown error')}"
        )
    return reply


@dataclass
class ReplicaInfo:
    """One registered replica endpoint and its shipping state."""

    host: str
    port: int
    #: The last change counter this replica acknowledged installing (0 =
    #: nothing shipped yet; the replica may still be current from bootstrap).
    acked_counter: int = 0
    #: Generations shipped successfully / shipping attempts that failed.
    ships: int = 0
    failures: int = 0
    #: The last shipping error, for ``replica_stats`` (None = healthy).
    last_error: str | None = None

    def as_row(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "acked_counter": self.acked_counter,
            "ships": self.ships,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class ReplicaSet:
    """The primary's registered replicas and the fan-out shipping logic."""

    def __init__(self, *, timeout: float = DEFAULT_SHIP_TIMEOUT):
        self.timeout = timeout
        self._replicas: dict[tuple[str, int], ReplicaInfo] = {}
        #: Ships are serialised: a snapshot export and its fan-out run as a
        #: unit, so replicas always converge on the *latest* generation
        #: (the idempotent install skips anything stale that slips through).
        self._lock = asyncio.Lock()

    def __len__(self) -> int:
        return len(self._replicas)

    def register(self, host: str, port: int) -> ReplicaInfo:
        """Record (or re-confirm) a replica endpoint; returns its entry."""
        key = (host, int(port))
        info = self._replicas.get(key)
        if info is None:
            info = self._replicas[key] = ReplicaInfo(host=host, port=int(port))
        return info

    def as_rows(self) -> list[dict]:
        return [info.as_row() for info in self._replicas.values()]

    async def ship_current(
        self,
        base_path: str,
        *,
        only: tuple[str, int] | None = None,
        retain: int | None = None,
    ) -> dict:
        """Export the current generation of ``base_path`` and fan it out.

        Ships to every registered replica (or just ``only``), each with
        ``retain`` (see :func:`ship_snapshot`).  Per-replica
        failures are recorded on the replica's entry and reported -- never
        raised: a dead replica must not take the write path down with it.
        Returns ``{"counter": C, "shipped": n, "failed": n, "replicas":
        [...]}``.
        """
        async with self._lock:
            loop = asyncio.get_running_loop()
            # File reads happen off the event loop; the export is a
            # consistent unit because generations are immutable once the
            # pointer names them.
            snapshot = await loop.run_in_executor(None, export_generation, base_path)
            targets = [
                info
                for key, info in self._replicas.items()
                if only is None or key == (only[0], int(only[1]))
            ]
            results = await asyncio.gather(
                *(self._ship_one(info, snapshot, retain) for info in targets)
            )
        return {
            "counter": snapshot["counter"],
            "generation": snapshot["generation"],
            "shipped": sum(1 for ok in results if ok),
            "failed": sum(1 for ok in results if not ok),
            "replicas": [info.as_row() for info in targets],
        }

    async def _ship_one(self, info: ReplicaInfo, snapshot: dict, retain: int | None) -> bool:
        try:
            await ship_snapshot(
                info.host, info.port, snapshot, retain=retain, timeout=self.timeout
            )
        except ServiceError as error:
            info.failures += 1
            info.last_error = str(error)
            return False
        info.ships += 1
        info.acked_counter = int(snapshot["counter"])
        info.last_error = None
        return True
