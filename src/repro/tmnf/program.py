"""TMNF program container and validation.

:class:`TMNFProgram` is the object the query engines consume.  It holds the
surface rules as parsed, the compiled internal rules (caterpillars expanded),
the PropLocal translation, the set of query predicates, and the statistics
reported in the paper's Figure 6 (|IDB| and |P|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import TMNFValidationError
from repro.tmnf import ast
from repro.tmnf.compile import compile_rules
from repro.tmnf.parser import parse_rules
from repro.tmnf.proplocal import PropLocalProgram, prop_local

__all__ = ["TMNFProgram"]

#: Conventional name of the distinguished query predicate.
DEFAULT_QUERY_PREDICATE = "QUERY"


@dataclass
class TMNFProgram:
    """A parsed, compiled and validated TMNF program.

    Instances are normally created with :meth:`parse` (from Arb surface
    syntax) or :meth:`from_rules` (from already-constructed AST rules).

    Parameters
    ----------
    surface_rules:
        The rules as written (caterpillar expressions not yet expanded).
    internal_rules:
        Strict(ened) TMNF rules after caterpillar compilation.
    query_predicates:
        The distinguished IDB predicates whose extensions constitute the
        query answers.  TMNF can evaluate several node-selecting queries in
        one program (Section 2.2), hence a tuple.
    source:
        Original program text, if available (used in reports and repr).
    """

    surface_rules: list[ast.SurfaceRule]
    internal_rules: list[ast.InternalRule]
    query_predicates: tuple[str, ...]
    source: str | None = None
    _prop_local: PropLocalProgram | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, text: str, query_predicates: tuple[str, ...] | str | None = None) -> "TMNFProgram":
        """Parse Arb surface syntax into a program.

        When ``query_predicates`` is not given, the predicate ``QUERY`` is
        used if the program defines it, otherwise the head of the first rule.
        """
        surface = parse_rules(text)
        if not surface:
            raise TMNFValidationError("empty program")
        return cls.from_surface(surface, query_predicates, source=text)

    @classmethod
    def from_surface(
        cls,
        surface: list[ast.SurfaceRule],
        query_predicates: tuple[str, ...] | str | None = None,
        source: str | None = None,
    ) -> "TMNFProgram":
        internal = compile_rules(surface)
        heads = [rule.head for rule in surface]
        resolved = _resolve_query_predicates(query_predicates, heads)
        program = cls(
            surface_rules=surface,
            internal_rules=internal,
            query_predicates=resolved,
            source=source,
        )
        program.validate()
        return program

    @classmethod
    def from_rules(
        cls,
        rules: list[ast.SurfaceRule],
        query_predicates: tuple[str, ...] | str | None = None,
    ) -> "TMNFProgram":
        """Build a program from AST rules (surface or already strict)."""
        return cls.from_surface(list(rules), query_predicates)

    # ------------------------------------------------------------------ #
    # Derived data
    # ------------------------------------------------------------------ #

    def prop_local(self) -> PropLocalProgram:
        """The PropLocal translation (cached)."""
        if self._prop_local is None:
            self._prop_local = prop_local(self.internal_rules)
        return self._prop_local

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        return frozenset(rule.head for rule in self.internal_rules)

    @cached_property
    def sigma(self) -> frozenset[str]:
        """Unary EDB predicates mentioned by the program."""
        return self.prop_local().sigma

    @property
    def n_idb(self) -> int:
        """|IDB| as reported in Figure 6, column (2)."""
        return len(self.idb_predicates)

    @property
    def n_rules(self) -> int:
        """|P| (number of internal TMNF rules) as in Figure 6, column (3)."""
        return len(self.internal_rules)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check that the program is well-formed; raise on problems."""
        if not self.internal_rules:
            raise TMNFValidationError("program has no rules after compilation")
        idb = self.idb_predicates
        for query_pred in self.query_predicates:
            if query_pred not in idb:
                raise TMNFValidationError(
                    f"query predicate {query_pred!r} is not defined by any rule"
                )
        for rule in self.internal_rules:
            if ast.is_unary_edb(rule.head) or rule.head == ast.UNIVERSE:
                raise TMNFValidationError(f"rule head {rule.head!r} is an EDB predicate")
            if isinstance(rule, (ast.DownRule, ast.UpRule)):
                if rule.relation not in ("FirstChild", "SecondChild"):
                    raise TMNFValidationError(
                        f"rule {rule!s}: unknown relation {rule.relation!r}"
                    )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        names = ",".join(self.query_predicates)
        return (
            f"TMNFProgram(|IDB|={self.n_idb}, |P|={self.n_rules}, query={names})"
        )


def _resolve_query_predicates(
    query_predicates: tuple[str, ...] | str | None, heads: list[str]
) -> tuple[str, ...]:
    if isinstance(query_predicates, str):
        return (query_predicates,)
    if query_predicates:
        return tuple(query_predicates)
    if DEFAULT_QUERY_PREDICATE in heads:
        return (DEFAULT_QUERY_PREDICATE,)
    return (heads[0],)
