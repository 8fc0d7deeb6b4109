"""The planner: pick the cheapest capable backend for a plan.

The rules are deliberately small and transparent:

* an explicit ``engine`` name always wins (it is an error to name a backend
  that cannot execute the plan on the given database);
* per-node true-predicate sets (``keep_true_predicates``) need the tree in
  memory: neither scan backend can produce them, so the memory backend
  runs (materialising an on-disk database first);
* otherwise, on disk, a plan that compiled to a one-pass streaming query
  runs on the streaming backend (one linear scan of the `.arb` file instead
  of two, and no temporary state file), every other plan on the two-scan
  disk backend;
* in-memory databases use the two-phase memory backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EvaluationError
from repro.plan.backends import (
    DiskBackend,
    ExecutionBackend,
    FixpointBackend,
    MemoryBackend,
    StreamingBackend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Database
    from repro.plan.plan import QueryPlan

__all__ = ["BACKENDS", "AUTO_ENGINE", "choose_backend"]

#: Sentinel engine name for automatic backend selection.
AUTO_ENGINE = "auto"

#: Registry of the stateless backend singletons, keyed by engine name.
BACKENDS: dict[str, ExecutionBackend] = {
    backend.name: backend
    for backend in (MemoryBackend(), DiskBackend(), StreamingBackend(), FixpointBackend())
}


def choose_backend(
    plan: "QueryPlan",
    database: "Database",
    *,
    engine: str | None = None,
    keep_true_predicates: bool = False,
) -> ExecutionBackend:
    """Select the execution backend for ``plan`` over ``database``."""
    if engine is not None and engine != AUTO_ENGINE:
        backend = BACKENDS.get(engine)
        if backend is None:
            names = ", ".join(sorted(BACKENDS))
            raise EvaluationError(f"unknown engine {engine!r} (use one of: {names}, auto)")
        if not backend.can_execute(plan, database):
            raise EvaluationError(
                f"engine {engine!r} cannot execute this query on this database"
            )
        return backend
    if database.is_on_disk and not keep_true_predicates:
        if plan.streaming_query is not None:
            return BACKENDS[StreamingBackend.name]
        return BACKENDS[DiskBackend.name]
    return BACKENDS[MemoryBackend.name]
