"""Per-plan execution locks for multi-threaded callers of the plan layer.

A :class:`~repro.plan.plan.QueryPlan` is *looked up* thread-safely through
the :class:`~repro.plan.cache.PlanCache`, but it must never be *executed* by
two threads at once: its evaluator memoises into shared hash tables and
carries per-run statistics.  Threads do share plans: the query service
evaluates on its own worker thread with plans from the target's cache, the
same plans any other thread of the process gets from that cache (the
process-wide default cache is shared by every database that is not given
its own).  The one execution site of cached plans --
:meth:`Database.execute_plans <repro.engine.Database.execute_plans>`, which
``Database.query`` / ``query_many``, the collection shards and the query
service all go through -- therefore serialises executions per plan through
the registry below, whoever the caller and whatever its threads.

The registry hands out one :class:`threading.Lock` per live plan without
touching ``QueryPlan`` itself.  :func:`plans_locked` acquires the locks of a
whole batch in a global order (by object id), so two threads locking
overlapping plan sets cannot deadlock.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["lock_for", "plans_locked"]

_LOCK_REGISTRY_GUARD = threading.Lock()
_PLAN_LOCKS: "weakref.WeakKeyDictionary[QueryPlan, threading.Lock]" = (
    weakref.WeakKeyDictionary()
)


def lock_for(plan: "QueryPlan") -> threading.Lock:
    """The execution lock of ``plan`` (created on first use, GC'd with it)."""
    with _LOCK_REGISTRY_GUARD:
        lock = _PLAN_LOCKS.get(plan)
        if lock is None:
            lock = threading.Lock()
            _PLAN_LOCKS[plan] = lock
        return lock


@contextmanager
def plans_locked(plans: Sequence["QueryPlan"]):
    """Hold the execution locks of all distinct plans, in a global order."""
    distinct: dict[int, "QueryPlan"] = {id(plan): plan for plan in plans}
    # Sorting by id gives every thread the same acquisition order, so two
    # workers locking overlapping plan sets cannot deadlock.
    locks = [lock_for(distinct[key]) for key in sorted(distinct)]
    for lock in locks:
        lock.acquire()
    try:
        yield
    finally:
        for lock in reversed(locks):
            lock.release()
