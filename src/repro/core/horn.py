"""Propositional Horn programs, LTUR, and program contraction.

This module is the engine room of the paper's main technical contribution
(Section 4.1): sets of reachable STA states are represented as *residual
propositional logic programs* (propositional Horn formulae), which in
practice stay very small.

Predicates
----------
Propositional predicates are plain strings.  A predicate may carry a *child
superscript*: ``P`` is a local predicate, ``P#1`` talks about the first
(left) child and ``P#2`` about the second (right) child (the paper writes
these as :math:`X_i^1` and :math:`X_i^2`).  Helper functions convert between
the forms.

Rules and programs
------------------
A rule is a :class:`Rule` -- an immutable ``(head, body)`` pair where the
body is a ``frozenset`` of predicates; a fact is a rule with an empty body.
A *program* is representable as any iterable of rules; the canonical hashable
form used as an automaton state is a ``frozenset`` of rules (see
:func:`freeze_program`).

Algorithms
----------
:func:`ltur`
    Minoux-style linear-time unit resolution producing the set of derivable
    predicates and the residual program (steps 1-4 of Section 4.1).
:func:`contract_program`
    The ``ContractProgram`` procedure: close the program under unfolding of
    superscripted heads into bodies, then keep only fully local rules.
:func:`simplify_program`
    Semantics-preserving clean-up (tautology removal, subsumption) used to
    canonicalise automaton states so the lazy transition tables hit more
    often.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SUPERSCRIPT_SEPARATOR",
    "Rule",
    "fact",
    "push_down",
    "superscript_of",
    "strip_superscript",
    "is_superscripted",
    "preds_as_rules",
    "true_preds",
    "freeze_program",
    "ltur",
    "LturResult",
    "contract_program",
    "simplify_program",
    "push_down_program",
]

#: Separator between a predicate name and its child superscript.
SUPERSCRIPT_SEPARATOR = "#"


@dataclass(frozen=True, slots=True)
class Rule:
    """A propositional Horn rule ``head <- body`` (``body`` may be empty)."""

    head: str
    body: frozenset[str]

    def __init__(self, head: str, body: Iterable[str] = ()):  # noqa: D401
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", frozenset(body))

    def is_fact(self) -> bool:
        return not self.body

    def is_tautology(self) -> bool:
        return self.head in self.body

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head} <-"
        return f"{self.head} <- {' & '.join(sorted(self.body))}"


def fact(head: str) -> Rule:
    """A rule with an empty body."""
    return Rule(head, ())


# --------------------------------------------------------------------------- #
# Superscript handling (PushDown_k / PushUpFrom_k / Preds_k of Section 4.1)
# --------------------------------------------------------------------------- #


def push_down(pred: str, k: int) -> str:
    """Add child superscript ``k`` (1 or 2) to a local predicate."""
    if k not in (1, 2):
        raise ValueError(f"child superscript must be 1 or 2, got {k}")
    if SUPERSCRIPT_SEPARATOR in pred:
        raise ValueError(f"predicate {pred!r} already carries a superscript")
    return f"{pred}{SUPERSCRIPT_SEPARATOR}{k}"


def superscript_of(pred: str) -> int:
    """The child superscript of a predicate, or 0 if it is local."""
    name, sep, suffix = pred.rpartition(SUPERSCRIPT_SEPARATOR)
    if not sep:
        return 0
    return int(suffix)


def strip_superscript(pred: str) -> str:
    """Remove the child superscript (no-op for local predicates)."""
    name, sep, _suffix = pred.rpartition(SUPERSCRIPT_SEPARATOR)
    return name if sep else pred


def is_superscripted(pred: str) -> bool:
    return SUPERSCRIPT_SEPARATOR in pred


def push_down_program(rules: Iterable[Rule], k: int) -> list[Rule]:
    """PushDown_k: add superscript ``k`` to every predicate of every rule.

    The input program must contain only local predicates (this is guaranteed
    for residual automaton states, which are fully contracted).
    """
    return [Rule(push_down(r.head, k), (push_down(b, k) for b in r.body)) for r in rules]


# --------------------------------------------------------------------------- #
# Small helpers from Section 4.1
# --------------------------------------------------------------------------- #


def preds_as_rules(preds: Iterable[str]) -> list[Rule]:
    """PredsAsRules: turn a set of predicates into facts."""
    return [fact(p) for p in preds]


def true_preds(rules: Iterable[Rule]) -> frozenset[str]:
    """TruePreds: the predicates asserted by facts of the program."""
    return frozenset(r.head for r in rules if not r.body)


def freeze_program(rules: Iterable[Rule]) -> frozenset[Rule]:
    """Canonical hashable form of a program (used as automaton state)."""
    return frozenset(rules)


# --------------------------------------------------------------------------- #
# LTUR: linear-time unit resolution and residual program construction
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class LturResult:
    """Result of :func:`ltur`.

    Attributes
    ----------
    derived:
        All predicates derivable from the facts of the program (the set ``M``).
    residual:
        The residual program per Section 4.1: rules whose head is not yet
        true and whose body contains no EDB predicate outside ``M``, with true
        body predicates removed, plus one fact per derived IDB predicate.
    """

    derived: frozenset[str]
    residual: tuple[Rule, ...]


def ltur(rules: Sequence[Rule], edb_predicates: frozenset[str] | None = None) -> LturResult:
    """Linear-time unit resolution (Minoux) plus residual construction.

    Parameters
    ----------
    rules:
        The propositional program, including EDB facts (facts whose head is
        an EDB predicate).
    edb_predicates:
        The set of predicate names to treat as EDB.  Rules with an
        underivable EDB body predicate are dropped from the residual, and
        derived EDB predicates do not get re-asserted as residual facts.
        When ``None``, every predicate is treated as IDB.

    The running time is linear in the total size of the program.
    """
    edb = edb_predicates if edb_predicates is not None else frozenset()

    # Index: body predicate -> list of rule indices waiting on it.
    waiting: dict[str, list[int]] = defaultdict(list)
    missing = [0] * len(rules)
    derived: set[str] = set()
    queue: list[str] = []

    for index, rule in enumerate(rules):
        missing[index] = len(rule.body)
        if not rule.body:
            if rule.head not in derived:
                derived.add(rule.head)
                queue.append(rule.head)
        else:
            for body_pred in rule.body:
                waiting[body_pred].append(index)

    # Unit propagation.
    head = 0
    while head < len(queue):
        pred = queue[head]
        head += 1
        for rule_index in waiting.get(pred, ()):
            missing[rule_index] -= 1
            if missing[rule_index] == 0:
                new_head = rules[rule_index].head
                if new_head not in derived:
                    derived.add(new_head)
                    queue.append(new_head)

    derived_frozen = frozenset(derived)

    # Residual construction (steps 2-4 of Section 4.1).
    residual: list[Rule] = []
    seen: set[Rule] = set()
    for rule in rules:
        if rule.head in derived_frozen:
            continue  # head already true -> rule is satisfied
        remaining = []
        dropped = False
        for body_pred in rule.body:
            if body_pred in derived_frozen:
                continue  # true body predicates are removed
            if body_pred in edb:
                dropped = True  # EDB predicate that is not true can never become true
                break
            remaining.append(body_pred)
        if dropped:
            continue
        simplified = Rule(rule.head, remaining)
        if simplified not in seen:
            seen.add(simplified)
            residual.append(simplified)
    for pred in sorted(derived_frozen):
        if pred in edb:
            continue  # the residual program never contains EDB predicates
        new_fact = fact(pred)
        if new_fact not in seen:
            seen.add(new_fact)
            residual.append(new_fact)
    return LturResult(derived=derived_frozen, residual=tuple(residual))


# --------------------------------------------------------------------------- #
# ContractProgram
# --------------------------------------------------------------------------- #


def contract_program(rules: Iterable[Rule], *, max_rules: int = 200_000) -> frozenset[Rule]:
    """The ``ContractProgram`` procedure of Section 4.1.

    Two rules ``r1`` and ``r2`` are *unfolded* if ``head(r2)`` occurs in
    ``body(r1)`` and ``head(r2)`` carries a child superscript; unfolding
    replaces that occurrence by ``body(r2)``.  This is iterated to a fixpoint
    and afterwards every rule still containing a superscripted predicate is
    removed, leaving a fully local program.

    Tautological rules (head occurring in its own body) are discarded: they
    are logically vacuous and would only blow up the closure.

    ``max_rules`` is a safety valve against pathological programs; the paper
    notes the worst case is exponential but observes that real residual
    programs stay tiny.
    """
    work: list[Rule] = []
    seen: set[Rule] = set()
    for rule in rules:
        if rule.is_tautology():
            continue
        if rule not in seen:
            seen.add(rule)
            work.append(rule)

    # Index rules by superscripted head, so that for a rule with a
    # superscripted body predicate we can find all unfolding partners.
    by_super_head: dict[str, list[Rule]] = defaultdict(list)
    for rule in work:
        if is_superscripted(rule.head):
            by_super_head[rule.head].append(rule)

    queue = list(work)
    head_index = 0
    while head_index < len(queue):
        rule = queue[head_index]
        head_index += 1
        super_body = [p for p in rule.body if is_superscripted(p)]
        for body_pred in super_body:
            for partner in by_super_head.get(body_pred, ()):
                new_body = (rule.body - {body_pred}) | partner.body
                new_rule = Rule(rule.head, new_body)
                if new_rule.is_tautology() or new_rule in seen:
                    continue
                seen.add(new_rule)
                queue.append(new_rule)
                if is_superscripted(new_rule.head):
                    by_super_head[new_rule.head].append(new_rule)
                if len(seen) > max_rules:
                    raise RuntimeError(
                        "ContractProgram exceeded the rule budget "
                        f"({max_rules}); the query produces pathologically "
                        "large residual programs"
                    )

    local_rules = [
        rule
        for rule in seen
        if not is_superscripted(rule.head) and not any(is_superscripted(p) for p in rule.body)
    ]
    return simplify_program(local_rules)


def simplify_program(rules: Iterable[Rule]) -> frozenset[Rule]:
    """Canonicalise a program without changing its logical content.

    * tautologies are dropped;
    * rules whose head is already a fact are dropped;
    * rules subsumed by another rule with the same head and a subset body are
      dropped.

    The result is deterministic for logically identical inputs produced by the
    evaluator, which is what makes the lazy transition tables effective.
    """
    facts_set = {r.head for r in rules if not r.body}
    by_head: dict[str, list[frozenset[str]]] = defaultdict(list)
    for rule in rules:
        if rule.is_tautology():
            continue
        if rule.body and rule.head in facts_set:
            continue
        by_head[rule.head].append(rule.body)

    kept: list[Rule] = []
    for head, bodies in by_head.items():
        # Remove subsumed bodies: keep body b only if no other kept body is a
        # proper subset of it (and deduplicate equal bodies).
        bodies_sorted = sorted(set(bodies), key=len)
        minimal: list[frozenset[str]] = []
        for body in bodies_sorted:
            if not any(existing <= body for existing in minimal):
                minimal.append(body)
        kept.extend(Rule(head, body) for body in minimal)
    return frozenset(kept)
