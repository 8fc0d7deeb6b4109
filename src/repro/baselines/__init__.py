"""Baseline evaluator: the naive datalog fixpoint."""

from repro.baselines.datalog import FixpointEvaluator, FixpointResult, evaluate_fixpoint

__all__ = [
    "FixpointEvaluator",
    "FixpointResult",
    "evaluate_fixpoint",
]
