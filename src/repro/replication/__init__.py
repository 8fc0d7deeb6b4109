"""Generation-shipping replication: a router tier over replica servers.

The topology is one writer, many readers: a single *primary*
``ArbServer`` owns every update to a base and ships each committed
generation (immutable files + pointer payload, wrapped in checksummed WAL
frames) to registered *replica* servers; an :class:`ArbRouter` in front
fans the client query stream across the replicas -- round-robin, pinned
per burst -- and forwards writes to the primary.  See
:mod:`repro.replication.shipping` for the channel and
:mod:`repro.replication.router` for the front door.
"""

from repro.replication.router import ArbRouter, route
from repro.replication.shipping import (
    DEFAULT_SHIP_TIMEOUT,
    DEFAULT_STREAM_LIMIT,
    ReplicaInfo,
    ReplicaSet,
    ship_snapshot,
)

__all__ = [
    "ArbRouter",
    "DEFAULT_SHIP_TIMEOUT",
    "DEFAULT_STREAM_LIMIT",
    "ReplicaInfo",
    "ReplicaSet",
    "route",
    "ship_snapshot",
]
