"""Linear-scan tree traversals over `.arb` databases (Proposition 5.1).

Both traversals touch the `.arb` file with exactly one linear scan and keep a
stack whose depth is bounded by the depth of the *unranked* XML tree:

* :func:`scan_top_down` reads the file forward (pre-order).  Every node is
  visited knowing the value its parent's visit produced and whether the node
  is a first or second (binary) child.
* :func:`scan_bottom_up` reads the file backward (reverse pre-order).  Every
  node is visited knowing the values its children's visits produced.

The "values" are arbitrary; the disk query engine threads automaton states
through them, the structure checker threads node counts, etc.  Both functions
report the maximum stack depth so tests and benchmarks can verify the bound.

Record decoding is page-batched underneath
(:meth:`~repro.storage.database.ArbDatabase.records_forward` /
``records_backward`` unpack whole pages with one ``iter_unpack`` call and
intern the decoded :class:`NodeRecord` values), so the per-node cost here is
the ``visit`` callback, not the decoding; the database's
:class:`~repro.storage.paging.PagerConfig` (with or without a buffer pool)
never changes ``io``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.errors import StorageError
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics
from repro.storage.records import NodeRecord

__all__ = ["ScanResult", "scan_top_down", "scan_bottom_up"]

T = TypeVar("T")


@dataclass
class ScanResult(Generic[T]):
    """Outcome of a linear-scan traversal."""

    root_value: T
    nodes_visited: int
    max_stack_depth: int
    io: IOStatistics


def scan_top_down(
    database: ArbDatabase,
    visit: Callable[[int, NodeRecord, T | None, int], T],
) -> ScanResult[T]:
    """Forward linear scan; ``visit(node_id, record, parent_value, which_child)``.

    ``which_child`` is 0 for the root, 1 for first children, 2 for second
    children.  Returns the value produced for the root.
    """
    io = IOStatistics()
    awaiting_second: list[T] = []
    # What the next record is: (parent_value, which_child) or None when the
    # next record's parent must be popped from ``awaiting_second``.
    next_attachment: tuple[T, int] | None = None
    root_value: T | None = None
    max_depth = 0
    count = 0
    for index, record in enumerate(database.records_forward(stats=io)):
        if index == 0:
            parent_value, which = None, 0
        elif next_attachment is not None:
            parent_value, which = next_attachment
        else:
            if not awaiting_second:
                raise StorageError("corrupt database: record has no pending parent")
            parent_value, which = awaiting_second.pop(), 2
        value = visit(index, record, parent_value, which)
        if index == 0:
            root_value = value
        count += 1
        if record.has_first_child and record.has_second_child:
            awaiting_second.append(value)
            max_depth = max(max_depth, len(awaiting_second))
            next_attachment = (value, 1)
        elif record.has_first_child:
            next_attachment = (value, 1)
        elif record.has_second_child:
            next_attachment = (value, 2)
        else:
            next_attachment = None
    if count != database.n_nodes:
        raise StorageError(f"expected {database.n_nodes} records, saw {count}")
    if awaiting_second:
        raise StorageError("corrupt database: nodes still awaiting their second child")
    return ScanResult(root_value=root_value, nodes_visited=count, max_stack_depth=max_depth, io=io)


def scan_bottom_up(
    database: ArbDatabase,
    visit: Callable[[int, NodeRecord, T | None, T | None], T],
) -> ScanResult[T]:
    """Backward linear scan; ``visit(node_id, record, first_child_value, second_child_value)``.

    Child values are ``None`` for missing children.  Returns the value
    produced for the root (the last record visited).
    """
    io = IOStatistics()
    stack: list[T] = []
    max_depth = 0
    count = 0
    n = database.n_nodes
    root_value: T | None = None
    for offset, record in enumerate(database.records_backward(stats=io)):
        node_id = n - 1 - offset
        first_value: T | None = None
        second_value: T | None = None
        # In reverse pre-order the first child's subtree is read immediately
        # before this node, the second child's subtree before that; so the
        # first child's value sits on top of the stack.
        if record.has_first_child:
            if not stack:
                raise StorageError("corrupt database: missing first-child value")
            first_value = stack.pop()
        if record.has_second_child:
            if not stack:
                raise StorageError("corrupt database: missing second-child value")
            second_value = stack.pop()
        value = visit(node_id, record, first_value, second_value)
        stack.append(value)
        max_depth = max(max_depth, len(stack))
        count += 1
        root_value = value
    if count != n:
        raise StorageError(f"expected {n} records, saw {count}")
    if len(stack) != 1:
        raise StorageError("corrupt database: leftover values after the bottom-up scan")
    return ScanResult(root_value=root_value, nodes_visited=count, max_stack_depth=max_depth, io=io)
