"""A keyed LRU cache of query plans.

The cache has two key levels:

* a cheap **source key** ``(language, query text, query predicates)`` that
  avoids even re-parsing a query string seen before, and
* the plan's **structural key** (canonicalised internal rules plus query
  predicates), so differently-spelled but structurally-equal queries -- and
  the same query issued against *different documents* -- share one plan and
  therefore one set of memoised automaton tables.

Eviction is LRU over the structural entries, bounded by ``max_plans`` (the
automaton tables are the dominant memory consumer, so bounding the number of
live plans bounds the cache's footprint).  ``hits`` / ``misses`` count
lookups over the cache's lifetime; the per-call outcome is recorded in the
returned flag and surfaced on
:attr:`~repro.core.two_phase.EvaluationStatistics.plan_cache_hits`.

The module-level :func:`default_plan_cache` is shared by every
:class:`~repro.engine.Database` that is not given an explicit cache, which
is what makes plans survive across documents.

Cache *lookups* are thread-safe (an internal lock serialises the bookkeeping
of the two key tables and the LRU order), so one keyed cache can be shared
by every thread of a process -- the query service's compile and evaluation
workers among them.  The **plans** a lookup hands out are not: a plan's
evaluator memoises into shared hash tables and carries per-run statistics,
so two threads must never *execute* the same plan concurrently.  The plan
dispatcher serialises executions per plan with the plan's own lock (see
:func:`repro.plan.plan.plans_locked`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.plan.plan import QueryPlan, compile_query, structural_key_of
from repro.tmnf.program import TMNFProgram

__all__ = ["PlanCache", "default_plan_cache"]

#: Default bound on the number of live plans in a cache.
DEFAULT_MAX_PLANS = 256


class PlanCache:
    """LRU cache mapping queries to :class:`~repro.plan.plan.QueryPlan`."""

    def __init__(self, max_plans: int = DEFAULT_MAX_PLANS):
        if max_plans < 1:
            raise ValueError("max_plans must be at least 1")
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self._aliases: dict[tuple, tuple] = {}  # source key -> structural key
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #

    def lookup(
        self,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
    ) -> tuple[QueryPlan, bool]:
        """Return ``(plan, hit)`` for ``query``, compiling it on a miss."""
        source_key = _source_key(query, language, query_predicate)
        with self._lock:
            if source_key is not None:
                structural = self._aliases.get(source_key)
                if structural is not None and structural in self._plans:
                    self._plans.move_to_end(structural)
                    self.hits += 1
                    return self._plans[structural], True
            # Source miss: compile the program, then try to unify with a
            # structurally equal plan before paying for a fresh evaluator.
            program = compile_query(query, language=language, query_predicate=query_predicate)
            structural = structural_key_of(program)
            cached = self._plans.get(structural)
            if cached is not None:
                self._plans.move_to_end(structural)
                if source_key is not None:
                    self._aliases[source_key] = structural
                    self._bound_aliases()
                self.hits += 1
                return cached, True
            plan = QueryPlan(program)
            self._plans[structural] = plan
            if source_key is not None:
                self._aliases[source_key] = structural
            self.misses += 1
            self._evict()
            return plan, False

    def get_cached(
        self,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
    ) -> QueryPlan | None:
        """The cached plan for ``query`` (by source key only), or ``None``."""
        source_key = _source_key(query, language, query_predicate)
        if source_key is None:
            return None
        with self._lock:
            structural = self._aliases.get(source_key)
            if structural is None:
                return None
            return self._plans.get(structural)

    # ------------------------------------------------------------------ #

    def _evict(self) -> None:
        while len(self._plans) > self.max_plans:
            evicted_key, _ = self._plans.popitem(last=False)
            self._aliases = {
                source: structural
                for source, structural in self._aliases.items()
                if structural != evicted_key
            }
        self._bound_aliases()

    def _bound_aliases(self) -> None:
        # Distinct spellings of live plans also accumulate aliases; bound them
        # so the cache footprint really is governed by max_plans alone.
        max_aliases = 4 * self.max_plans
        if len(self._aliases) > max_aliases:
            excess = len(self._aliases) - max_aliases
            for source in list(self._aliases)[:excess]:
                del self._aliases[source]

    def clear(self) -> None:
        """Drop every plan and reset the hit/miss counters."""
        with self._lock:
            self._plans.clear()
            self._aliases.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, query: object) -> bool:
        if isinstance(query, QueryPlan):
            with self._lock:
                return query.structural_key in self._plans
        if isinstance(query, (str, TMNFProgram)):
            return self.get_cached(query) is not None
        return False

    def stats(self) -> dict[str, int]:
        """Cumulative counters, e.g. for benchmark reports."""
        with self._lock:
            return {"plans": len(self._plans), "hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache({len(self._plans)}/{self.max_plans} plans, "
            f"{self.hits} hits, {self.misses} misses)"
        )


def _source_key(
    query: str | TMNFProgram,
    language: str,
    query_predicate: str | tuple[str, ...] | None,
) -> tuple | None:
    """A cheap lookup key for string queries (``None`` for program objects)."""
    if not isinstance(query, str):
        return None
    if isinstance(query_predicate, str):
        predicates: tuple[str, ...] | None = (query_predicate,)
    elif query_predicate is None:
        predicates = None
    else:
        predicates = tuple(query_predicate)
    return (language, query.strip(), predicates)


#: The process-wide cache shared by all databases without an explicit cache.
_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The shared process-wide plan cache."""
    return _DEFAULT_CACHE
