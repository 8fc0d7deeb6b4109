"""The PropLocal translation (Definition 4.2).

A TMNF program ``P`` with IDB predicates ``X1..Xl`` and unary EDB schema
``sigma`` is translated into a propositional program over the predicates
``sigma  ∪  {Xi, Xi#1, Xi#2}`` where ``Xi#k`` ("Xi at the k-child") is the
paper's :math:`X_i^k`:

1. ``Xi :- R;``                  ->  ``Xi <- R``              (local rule)
2. ``Xi :- Xj, Xk;``             ->  ``Xi <- Xj & Xk``        (local rule)
3. ``Xi :- Xj.invFirstChild;``   ->  ``Xi <- Xj#1``           (left rule)
4. ``Xi :- Xj.invSecondChild;``  ->  ``Xi <- Xj#2``           (right rule)
5. ``Xi :- Xj.FirstChild;``      ->  ``Xi#1 <- Xj``           (left + downward_1)
6. ``Xi :- Xj.SecondChild;``     ->  ``Xi#2 <- Xj``           (right + downward_2)

The generalised local rules of the internal normal form (arbitrary local
conjunctions of IDB and unary EDB atoms) are translated exactly like cases
(1)/(2): the whole body becomes the clause body.

The resulting rule groups (*local*, *left*, *right*, *downward_1*,
*downward_2*) are exactly the inputs needed by ``ComputeReachableStates`` and
``ComputeTruePreds`` in :mod:`repro.core.two_phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.horn import Rule, push_down
from repro.errors import TMNFValidationError
from repro.tmnf import ast
from repro.tree import model as tree_model
from repro.tree.model import NodeSchema

__all__ = ["PropLocalProgram", "prop_local"]


@dataclass(frozen=True)
class PropLocalProgram:
    """The propositional translation of a TMNF program, grouped per Section 4.1.

    Attributes
    ----------
    idb:
        IDB predicate names of the source program.
    sigma:
        The unary EDB predicate names (positive and negative forms are
        distinct entries) mentioned by the program -- the node alphabet is
        ``2^sigma``.
    local_rules, left_rules, right_rules, downward_rules1, downward_rules2:
        The rule groups of Definition 4.2.
    schema:
        A :class:`~repro.tree.model.NodeSchema` derived from ``sigma`` used to
        compute node label sets.
    """

    idb: frozenset[str]
    sigma: frozenset[str]
    local_rules: tuple[Rule, ...]
    left_rules: tuple[Rule, ...]
    right_rules: tuple[Rule, ...]
    downward_rules1: tuple[Rule, ...]
    downward_rules2: tuple[Rule, ...]
    schema: NodeSchema

    @property
    def edb_predicates(self) -> frozenset[str]:
        """All predicates to treat as EDB during unit resolution.

        This is ``sigma`` closed under complement for built-ins and negated
        labels, i.e. every predicate a node label set can mention.
        """
        return self.sigma | self.schema.all_predicates()


def prop_local(rules: list[ast.InternalRule]) -> PropLocalProgram:
    """Translate internal TMNF rules into their PropLocal form."""
    idb: set[str] = set()
    sigma: set[str] = set()
    local: list[Rule] = []
    left: list[Rule] = []
    right: list[Rule] = []
    down1: list[Rule] = []
    down2: list[Rule] = []

    for rule in rules:
        idb.add(rule.head)

    for rule in rules:
        if isinstance(rule, ast.LocalRule):
            body: list[str] = []
            for atom in rule.body:
                if atom == ast.UNIVERSE:
                    continue
                if atom not in idb:
                    if not ast.is_unary_edb(atom):
                        # Undefined IDB predicate: keep it (it can simply never
                        # be derived), but do not treat it as EDB.
                        body.append(atom)
                        continue
                    sigma.add(atom)
                body.append(atom)
            local.append(Rule(rule.head, body))
        elif isinstance(rule, ast.DownRule):
            _check_idb_body(rule.body_pred, idb, rule)
            clause = Rule(push_down(rule.head, _child_index(rule.relation)), (rule.body_pred,))
            if rule.relation == tree_model.FIRST_CHILD:
                left.append(clause)
                down1.append(clause)
            else:
                right.append(clause)
                down2.append(clause)
        elif isinstance(rule, ast.UpRule):
            _check_idb_body(rule.body_pred, idb, rule)
            clause = Rule(rule.head, (push_down(rule.body_pred, _child_index(rule.relation)),))
            if rule.relation == tree_model.FIRST_CHILD:
                left.append(clause)
            else:
                right.append(clause)
        else:  # pragma: no cover - defensive
            raise TMNFValidationError(f"cannot translate rule {rule!r}; compile caterpillars first")

    schema = NodeSchema.from_predicates(sigma)
    return PropLocalProgram(
        idb=frozenset(idb),
        sigma=frozenset(sigma),
        local_rules=tuple(local),
        left_rules=tuple(left),
        right_rules=tuple(right),
        downward_rules1=tuple(down1),
        downward_rules2=tuple(down2),
        schema=schema,
    )


def _child_index(relation: str) -> int:
    if relation == tree_model.FIRST_CHILD:
        return 1
    if relation == tree_model.SECOND_CHILD:
        return 2
    raise TMNFValidationError(f"unknown binary relation {relation!r}")


def _check_idb_body(body_pred: str, idb: set[str], rule) -> None:
    if ast.is_unary_edb(body_pred) or body_pred == ast.UNIVERSE:
        raise TMNFValidationError(
            f"rule {rule!s}: body predicate {body_pred!r} must be IDB in strict "
            "TMNF (the compiler wraps EDB starts automatically)"
        )
