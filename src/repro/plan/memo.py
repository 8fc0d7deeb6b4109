"""Per-plan derived-result memos, owned outside the plan objects.

Plans cached in :class:`~repro.plan.cache.PlanCache` are shared across
threads, so derived results (the neutral state, which bottom-up states are
silent) must not be stashed as mutable attributes on the plans themselves:
concurrent executors would race on the attribute writes.

This module owns those memos instead: one :class:`PlanMemo` per live
plan, held in a lock-guarded :class:`weakref.WeakKeyDictionary` so a
memo's lifetime exactly matches its plan's (evicting a plan from the
cache drops its memo with it).  Each memo guards its own mutable state
with a per-memo lock.  Its one dict is keyed by the plan's bottom-up state
ids, so it never outgrows the automaton the plan's evaluator already holds.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import QueryPlan

__all__ = ["PlanMemo", "memo_for"]

#: Sentinel distinguishing "not computed" from a computed ``None``.
_UNSET = object()


class PlanMemo:
    """Mutable derived state for one plan, lock-guarded."""

    __slots__ = ("lock", "_neutral_state", "_silent")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._neutral_state: Any = _UNSET
        self._silent: dict[int, bool] = {}

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
    # silent states
    # -------------------------------------------------------------- #

    def silent(self, state: int, compute) -> bool:
        """Memoised ``compute()`` keyed by the bottom-up ``state``."""
        with self.lock:
            cached = self._silent.get(state)
        if cached is not None:
            return cached
        result = compute()
        with self.lock:
            return self._silent.setdefault(state, result)


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
