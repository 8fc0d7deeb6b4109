"""The one value that carries execution options through the layers.

A public entry point (:meth:`Database.query` / ``query_many``,
:meth:`Collection.query` / ``query_many``, :class:`QueryService`,
:class:`DiskQueryEngine`) builds one :class:`ExecutionOptions` from its
keywords and passes it down whole; everything below takes the value and
nothing else, so a new knob is one field here, not a keyword on every
signature in between.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run compiled plans over one database (immutable, picklable).

    ``None`` in ``kernel`` means "not given": the consumer
    (:func:`repro.plan.kernel.resolve_kernel`) then takes the
    ``REPRO_KERNEL`` environment variable and after that the built-in
    default -- keyword > environment > default.
    """

    #: Backend name; ``None`` / ``"auto"`` leaves the choice to the planner.
    engine: str | None = None
    #: Directory of the temporary state file (default: beside the database).
    temp_dir: str | None = None
    #: ``False`` keeps the per-predicate counts but returns empty id lists.
    collect_selected_nodes: bool = True
    #: Whether a lockstep batch may skip pages through the ``.idx`` sidecar.
    use_index: bool = True
    #: Lockstep loop: ``"numpy"`` / ``"python"`` / ``"auto"`` (``REPRO_KERNEL``).
    kernel: str | None = None
