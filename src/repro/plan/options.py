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

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run compiled plans over one database (immutable, picklable)."""

    #: Backend name; ``None`` / ``"auto"``: the disk scan pair on disk, else memory.
    engine: str | None = None
    #: Directory of the temporary state file (default: beside the database).
    temp_dir: str | None = None
    #: ``False`` keeps the per-predicate counts but returns empty id lists.
    collect_selected_nodes: bool = True
