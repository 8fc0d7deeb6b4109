"""Per-plan derived-result memos, owned outside the plan objects.

Plans cached in :class:`~repro.plan.cache.PlanCache` are shared across
threads, so derived results (the neutral state, the answer-free closure)
must not be stashed as mutable attributes on the plans themselves:
concurrent executors would race on the attribute writes and the unbounded
dicts would grow for the lifetime of the cache entry.

This module owns those memos instead: one :class:`PlanMemo` per live
plan, held in a lock-guarded :class:`weakref.WeakKeyDictionary` so a
memo's lifetime exactly matches its plan's (evicting a plan from the
cache drops its memo with it).  Each memo guards its own mutable state
with a per-memo lock and bounds every dict it holds, so a long-lived
plan over many documents cannot leak.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["PlanMemo", "memo_for"]

#: Bound on each per-plan answer-free dict (keys are ``root_preds``
#: frozensets).  Overflow drops the oldest half rather than growing
#: forever; recomputation is always safe, just slower.
_ANSWER_FREE_MEMO_CAP = 512

#: Sentinel distinguishing "not computed" from a computed ``None``.
_UNSET = object()


class PlanMemo:
    """Mutable derived state for one plan, lock-guarded and bounded."""

    __slots__ = ("lock", "_neutral_state", "_answer_free")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._neutral_state: Any = _UNSET
        self._answer_free: dict[frozenset, bool] = {}

    # -------------------------------------------------------------- #
    # neutral state
    # -------------------------------------------------------------- #

    def neutral_state(self, compute) -> int | None:
        """``compute()`` once per plan; thereafter the cached result."""
        with self.lock:
            cached = self._neutral_state
        if cached is not _UNSET:
            return cached
        result = compute()
        with self.lock:
            if self._neutral_state is _UNSET:
                self._neutral_state = result
            return self._neutral_state

    # -------------------------------------------------------------- #
    # answer-free closure
    # -------------------------------------------------------------- #

    def answer_free(self, root_preds: frozenset, compute) -> bool:
        """Memoised ``compute()`` keyed by ``root_preds``, bounded."""
        with self.lock:
            cached = self._answer_free.get(root_preds)
        if cached is not None:
            return cached
        result = compute()
        with self.lock:
            if len(self._answer_free) >= _ANSWER_FREE_MEMO_CAP:
                # Drop the oldest half (insertion order); recomputation is
                # cheap relative to reading a region.
                for key in list(self._answer_free)[: _ANSWER_FREE_MEMO_CAP // 2]:
                    del self._answer_free[key]
            return self._answer_free.setdefault(root_preds, result)


_MEMOS: "weakref.WeakKeyDictionary[QueryPlan, PlanMemo]" = weakref.WeakKeyDictionary()
_MEMOS_LOCK = threading.Lock()


def memo_for(plan: "QueryPlan") -> PlanMemo:
    """The :class:`PlanMemo` of ``plan``, created on first use.

    The mapping is weak on the plan: when the plan cache evicts an entry
    and the last reference drops, the memo goes with it.
    """
    with _MEMOS_LOCK:
        memo = _MEMOS.get(plan)
        if memo is None:
            memo = _MEMOS[plan] = PlanMemo()
        return memo
