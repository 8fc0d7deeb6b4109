"""The query-plan layer: compile once, cache, execute anywhere.

This package separates *query compilation* from *query execution*:

* :class:`~repro.plan.plan.QueryPlan` owns the parsed/normalised TMNF
  program together with the lazily-memoised automaton tables of the
  two-phase evaluator, so repeated executions -- over the same document or
  over different documents -- reuse every transition computed so far;
* :class:`~repro.plan.cache.PlanCache` keys plans by query source text and
  by the structural form of the compiled program, so structurally-equal
  queries share one plan;
* :mod:`repro.plan.batch` evaluates *k* plans over an on-disk database in a
  **single pair of linear scans** by running the k bottom-up automata in
  lockstep per node -- the default route on disk, for a batch of one as
  for a batch of many;
* :class:`~repro.plan.options.ExecutionOptions` carries the few choices a
  caller makes (``engine`` is ``auto`` / ``disk`` / ``memory``).  In memory,
  :meth:`Database.execute_plans <repro.engine.Database.execute_plans>` runs
  each plan's own two-phase evaluator over the binary tree.
"""

from repro.plan.batch import evaluate_batch_on_disk
from repro.plan.cache import PlanCache, default_plan_cache
from repro.plan.options import ExecutionOptions
from repro.plan.plan import QueryPlan, compile_query
from repro.plan.result import BatchQueryResult, QueryResult

__all__ = [
    "QueryPlan",
    "PlanCache",
    "default_plan_cache",
    "compile_query",
    "QueryResult",
    "BatchQueryResult",
    "evaluate_batch_on_disk",
    "ExecutionOptions",
]
