"""Query plans: a compiled query plus its persistent automaton tables.

A :class:`QueryPlan` is created once per (structurally distinct) query and
lives as long as the :class:`~repro.plan.cache.PlanCache` keeps it.  It owns

* the parsed/normalised :class:`~repro.tmnf.program.TMNFProgram`,
* one persistent :class:`~repro.core.two_phase.TwoPhaseEvaluator` whose four
  hash tables (interned states, bottom-up and top-down transitions) are the
  lazily-materialised automata -- shared by **all** executions of the plan,
  in memory or on disk, over any document, so a transition is computed at
  most once per plan lifetime.

Per-execution statistics are separated from the persistent tables with
:meth:`QueryPlan.begin_run`: it installs a fresh
:class:`~repro.core.two_phase.EvaluationStatistics` on the evaluator while
keeping the memo tables, so a warm plan reports zero recompiled automaton
transitions.

A plan is the query's whole run state, so it also carries the one lock that
serialises its executions (:func:`plans_locked`) and the memo of results
derived from its automata (the neutral state and the silent states of the
disk loop's page skips, :mod:`repro.plan.batch`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Sequence

from repro.core.two_phase import EvaluationStatistics, TwoPhaseEvaluator
from repro.errors import EvaluationError
from repro.tmnf.program import TMNFProgram

__all__ = ["QueryPlan", "compile_query", "plans_locked", "structural_key_of"]


def structural_key_of(program: TMNFProgram) -> tuple:
    """Key identifying a program up to structural equality.

    Two queries with the same internal (caterpillar-expanded) rule *set* and
    the same query predicates share one plan, whatever their surface spelling
    or source language.  Neither rule order nor rule multiplicity affects the
    least model, so the rules are sorted and de-duplicated: a program that
    states a rule twice keys identically to one that states it once.
    """
    return (
        program.query_predicates,
        tuple(sorted({str(rule) for rule in program.internal_rules})),
    )


def compile_query(
    query: str | TMNFProgram,
    *,
    language: str = "tmnf",
    query_predicate: str | tuple[str, ...] | None = None,
) -> TMNFProgram:
    """Compile a query given in TMNF/caterpillar syntax or XPath into a program."""
    if isinstance(query, TMNFProgram):
        return query
    if language == "tmnf":
        return TMNFProgram.parse(query, query_predicates=query_predicate)
    if language == "xpath":
        from repro.xpath import xpath_to_program

        return xpath_to_program(query)
    raise EvaluationError(f"unknown query language: {language!r} (use 'tmnf' or 'xpath')")


class QueryPlan:
    """A compiled query and the memoised automata that execute it.

    Plans are shared: the plan cache hands the same plan to every thread of
    the process that asks for it.  Executing one is not thread-safe (its
    evaluator grows shared hash tables and carries per-run statistics), so
    every execution holds :attr:`lock`; :func:`plans_locked` takes it.
    """

    def __init__(self, program: TMNFProgram, *, memoize: bool = True):
        self.program = program
        self.memoize = memoize
        self.evaluator = TwoPhaseEvaluator(program, memoize=memoize)
        #: Number of times the plan has been executed (in memory or on disk).
        self.executions = 0
        #: Held by whoever executes the plan; reads and writes of ``memo`` too.
        self.lock = threading.Lock()
        #: What the disk loop's skip planning derives from the automata:
        #: ``"neutral"`` -> the neutral state, ``("silent", state)`` -> bool.
        self.memo: dict = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def from_query(
        cls,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        memoize: bool = True,
    ) -> "QueryPlan":
        """Compile ``query`` and wrap it in a fresh plan."""
        program = compile_query(query, language=language, query_predicate=query_predicate)
        return cls(program, memoize=memoize)

    # ------------------------------------------------------------------ #

    @property
    def structural_key(self) -> tuple:
        """Key identifying the plan up to structural equality of the program."""
        return structural_key_of(self.program)

    def begin_run(self) -> EvaluationStatistics:
        """Start one execution: fresh per-run statistics, warm memo tables."""
        self.executions += 1
        return self.evaluator.reset_stats()

    @property
    def n_cached_bu_transitions(self) -> int:
        """Bottom-up transitions accumulated over the plan's lifetime."""
        return self.evaluator.n_bottom_up_transitions

    @property
    def n_cached_td_transitions(self) -> int:
        """Top-down transitions accumulated over the plan's lifetime."""
        return self.evaluator.n_top_down_transitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlan({self.program!r}, executions={self.executions})"


@contextmanager
def plans_locked(plans: Sequence[QueryPlan]):
    """Hold the locks of all distinct ``plans``, taken in object-id order.

    Every thread takes them in the same global order, so two threads
    locking overlapping plan sets cannot deadlock.
    """
    distinct = {id(plan): plan for plan in plans}
    locks = [distinct[key].lock for key in sorted(distinct)]
    for lock in locks:
        lock.acquire()
    try:
        yield
    finally:
        for lock in reversed(locks):
            lock.release()
