"""The query-plan layer: compile once, cache, execute anywhere.

This package separates *query compilation* from *query execution*:

* :class:`~repro.plan.plan.QueryPlan` owns the parsed/normalised TMNF
  program together with the lazily-memoised automaton tables of the
  two-phase evaluator, so repeated executions -- over the same document or
  over different documents -- reuse every transition computed so far;
* :class:`~repro.plan.cache.PlanCache` keys plans by query source text and
  by the structural form of the compiled program, so structurally-equal
  queries share one plan;
* the execution backends in :mod:`repro.plan.backends`
  (``memory`` / ``disk`` / ``streaming`` / ``fixpoint``) run a plan against
  a database, and :func:`~repro.plan.planner.choose_backend` picks the
  cheapest capable one;
* :mod:`repro.plan.batch` evaluates *k* plans over an on-disk database in a
  **single pair of linear scans** by running the k bottom-up automata in
  lockstep per node.
"""

from repro.plan.backends import (
    DiskBackend,
    ExecutionBackend,
    FixpointBackend,
    MemoryBackend,
    StreamingBackend,
)
from repro.plan.batch import evaluate_batch_on_disk
from repro.plan.cache import PlanCache, default_plan_cache
from repro.plan.options import ExecutionOptions
from repro.plan.plan import QueryPlan, compile_query
from repro.plan.planner import BACKENDS, choose_backend
from repro.plan.result import BatchQueryResult, QueryResult

__all__ = [
    "QueryPlan",
    "PlanCache",
    "default_plan_cache",
    "compile_query",
    "QueryResult",
    "BatchQueryResult",
    "ExecutionBackend",
    "MemoryBackend",
    "DiskBackend",
    "StreamingBackend",
    "FixpointBackend",
    "BACKENDS",
    "choose_backend",
    "evaluate_batch_on_disk",
    "ExecutionOptions",
]
