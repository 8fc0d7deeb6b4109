"""Core of the Arb reproduction: Horn machinery and the two-phase engine."""

from repro.core.horn import Rule, contract_program, ltur, simplify_program
from repro.core.two_phase import BOTTOM, EvaluationResult, EvaluationStatistics, TwoPhaseEvaluator

__all__ = [
    "Rule",
    "ltur",
    "contract_program",
    "simplify_program",
    "TwoPhaseEvaluator",
    "EvaluationResult",
    "EvaluationStatistics",
    "BOTTOM",
]
