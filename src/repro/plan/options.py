"""The one value that carries execution options through the layers.

A public entry point (:meth:`Database.query` / ``query_many``,
:meth:`Collection.query` / ``query_many``, :class:`QueryService`) builds one
:class:`ExecutionOptions` from its keywords and passes it down whole;
everything below takes the value and nothing else.

Only choices that change what a caller gets back are options.  Whether the
``.idx`` sidecar lets the scans skip pages never changes an answer, so the
code decides it from what it observes
(:func:`repro.plan.batch._compute_skip`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError

__all__ = ["AUTO_ENGINE", "ENGINES", "ExecutionOptions"]

#: Engine name of the default route: the disk scan pair on disk, else memory.
AUTO_ENGINE = "auto"

#: Every engine name: ``disk`` asserts the data is on disk, ``memory`` runs
#: the two-phase evaluator over the in-memory tree (the differential oracle).
ENGINES = (AUTO_ENGINE, "disk", "memory")


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run compiled plans over one database (immutable, picklable)."""

    #: ``None`` / ``"auto"``: the disk scan pair on disk, else memory.
    engine: str | None = None
    #: Directory of the temporary state file (default: beside the database).
    temp_dir: str | None = None
    #: ``False`` keeps the per-predicate counts but returns empty id lists.
    collect_selected_nodes: bool = True

    def __post_init__(self) -> None:
        # Checked here, where a public entry point builds the value, so a
        # bad name fails before any worker, file or scan is started.
        if self.engine is not None and self.engine not in ENGINES:
            raise EvaluationError(
                f"unknown engine {self.engine!r} (use one of: {', '.join(ENGINES)})"
            )
