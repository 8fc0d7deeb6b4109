"""Abstract syntax of TMNF programs.

Strict TMNF (Section 2.2) has four rule templates::

    (1)  P(x)  <- U(x)                       "P :- U;"
    (2)  P(x)  <- P0(x0) & B(x0, x)          "P :- P0.B;"
    (3)  P(x0) <- P0(x)  & B(x0, x)          "P :- P0.invB;"
    (4)  P(x)  <- P1(x) & P2(x)              "P :- P1, P2;"

where ``U`` is a unary EDB predicate, ``B`` a binary EDB relation
(``FirstChild`` / ``SecondChild``) and all other predicates are IDB.

The *internal* normal form used by the evaluator generalises templates (1)
and (4) slightly: a :class:`LocalRule` may have any conjunction of IDB and
unary EDB predicates (including a single IDB predicate, i.e. a copy rule, or
an empty body, i.e. an unconditional mark).  This is convenient for the
caterpillar compiler and changes neither expressiveness nor the propositional
translation -- all such rules are "local rules" in the sense of
Definition 4.2.

Rules of templates (2) and (3) become :class:`DownRule` and :class:`UpRule`
(for ``B`` and ``invB`` respectively).

The extended surface syntax ``Q :- P.R;`` with a caterpillar (regular)
expression ``R`` is represented by :class:`CaterpillarRule` before
compilation (see :mod:`repro.tmnf.compile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.tmnf.caterpillar import CatExpr
from repro.tree import model as tree_model

__all__ = [
    "LocalRule",
    "DownRule",
    "UpRule",
    "CaterpillarRule",
    "InternalRule",
    "SurfaceRule",
    "UNIVERSE",
    "is_unary_edb",
]

#: The predicate name for "all nodes" (the relation V of Section 2.1).
UNIVERSE = "V"


def is_unary_edb(name: str) -> bool:
    """Whether a (normalised) predicate name denotes a unary EDB predicate."""
    core = tree_model.positive_form(name)
    return core in tree_model.UNARY_BUILTINS or tree_model.is_label_predicate(core) or core == UNIVERSE


@dataclass(frozen=True, slots=True)
class LocalRule:
    """``head(x) <- b1(x) & ... & bn(x)`` with all atoms over the same node.

    ``body`` mixes IDB predicates and (normalised) unary EDB predicates; it
    may be empty, in which case ``head`` holds at every node.
    """

    head: str
    body: tuple[str, ...]

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head} :- V;"
        return f"{self.head} :- {', '.join(self.body)};"


@dataclass(frozen=True, slots=True)
class DownRule:
    """Template (2): ``head(x) <- body_pred(x0) & relation(x0, x)``.

    The head is derived at the *child* end of the relation: if ``body_pred``
    holds at a node, ``head`` holds at its ``relation``-child.
    ``relation`` is ``FirstChild`` or ``SecondChild``.
    """

    head: str
    body_pred: str
    relation: str

    def __str__(self) -> str:
        return f"{self.head} :- {self.body_pred}.{self.relation};"


@dataclass(frozen=True, slots=True)
class UpRule:
    """Template (3): ``head(x0) <- body_pred(x) & relation(x0, x)``.

    The head is derived at the *parent* end of the relation: if ``body_pred``
    holds at the ``relation``-child of a node, ``head`` holds at that node.
    ``relation`` is ``FirstChild`` or ``SecondChild``.
    """

    head: str
    body_pred: str
    relation: str

    def __str__(self) -> str:
        return f"{self.head} :- {self.body_pred}.inv{self.relation};"


@dataclass(frozen=True, slots=True)
class CaterpillarRule:
    """Extended-syntax rule ``head :- start.expr;`` (Section 2.2).

    ``start`` is a predicate name (IDB, unary EDB, or :data:`UNIVERSE`);
    ``expr`` is a caterpillar regular expression over unary tests and binary
    moves.  ``head`` holds at every node reachable from a ``start`` node by a
    walk matching ``expr``.
    """

    head: str
    start: str
    expr: CatExpr

    def __str__(self) -> str:
        return f"{self.head} :- {self.start}.{self.expr};"


InternalRule = Union[LocalRule, DownRule, UpRule]
SurfaceRule = Union[LocalRule, DownRule, UpRule, CaterpillarRule]
