"""Two-pass creation of `.arb` databases (Section 5).

Pass 1
    A SAX run over the XML document (or an equivalent event stream from a
    synthetic dataset) counts the nodes, assigns label indexes (building the
    `.lab` table) and writes every begin/end event to a temporary `.evt` file
    -- two fixed-size events per node.

Pass 2
    The `.evt` file is read **backwards** while the `.arb` file is written
    **backwards**.  Reading the events in reverse yields the nodes in reverse
    pre-order, which is exactly the order in which records must be emitted
    when filling the file from its end; the only state needed is a stack
    bounded by the depth of the (unranked) XML tree.

The returned :class:`BuildStatistics` carries the columns of Figure 5.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import StorageError
from repro.storage.durability import fault_point, fsync_fd
from repro.storage.generations import (
    GenerationPointer,
    exclusive_writer,
    fsync_directory,
    list_generations,
    read_pointer,
    remove_generation_files,
    write_metadata,
    write_pointer,
)
from repro.storage.labels import FIRST_TAG_INDEX, LabelTable
from repro.storage.pageindex import (
    SummaryAccumulator,
    index_path_of,
    write_page_index,
)
from repro.storage.paging import (
    BackwardPagedWriter,
    IOStatistics,
    PagedReader,
    PagedWriter,
    check_page_size,
)
from repro.storage.records import (
    DEFAULT_RECORD_SIZE,
    decode_event,
    decode_event_value,
    encode_event,
    encode_node,
    record_struct,
)
from repro.tree.unranked import BEGIN, END, UnrankedTree, events_from_tree
from repro.tree.xml_io import parse_xml

__all__ = ["BuildStatistics", "DatabaseBuilder", "build_database"]

@dataclass
class BuildStatistics:
    """Database-creation statistics: the row format of Figure 5."""

    name: str = ""
    element_nodes: int = 0
    char_nodes: int = 0
    n_tags: int = 0
    seconds: float = 0.0
    arb_file_size: int = 0
    lab_file_size: int = 0
    evt_file_size: int = 0
    max_stack_depth: int = 0
    io: IOStatistics = field(default_factory=IOStatistics)

    @property
    def total_nodes(self) -> int:
        return self.element_nodes + self.char_nodes

    def as_row(self) -> dict[str, object]:
        """Columns (1)-(7) of Figure 5."""
        return {
            "name": self.name,
            "elem_nodes": self.element_nodes,
            "char_nodes": self.char_nodes,
            "tags": self.n_tags,
            "seconds": round(self.seconds, 2),
            "arb_bytes": self.arb_file_size,
            "lab_bytes": self.lab_file_size,
            "evt_bytes": self.evt_file_size,
        }


class DatabaseBuilder:
    """Builds `.arb` / `.lab` databases with the paper's two-pass procedure."""

    def __init__(
        self,
        record_size: int = DEFAULT_RECORD_SIZE,
        page_size: int = 64 * 1024,
    ):
        check_page_size(page_size)  # before any source is parsed or file created
        # Tag indexes start at 256, so a 1-byte record (63 labels) holds none.
        if type(record_size) is not int or record_size < 2:
            raise StorageError(f"record_size must be an integer >= 2, got {record_size!r}")
        self.record_size = record_size
        self.page_size = page_size

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def build_from_xml(
        self, document: str, base_path: str, *, text_mode: str = "chars", name: str = ""
    ) -> BuildStatistics:
        tree = parse_xml(document, text_mode=text_mode)
        return self.build_from_tree(tree, base_path, name=name)

    def build_from_tree(self, tree: UnrankedTree, base_path: str, *, name: str = "") -> BuildStatistics:
        return self.build_from_events(events_from_tree(tree), base_path, name=name)

    def build_from_events(
        self,
        events: Iterable[tuple[int, str, bool]],
        base_path: str,
        *,
        name: str = "",
    ) -> BuildStatistics:
        """Build a database from a ``(kind, label, is_text)`` event stream.

        ``base_path`` is the path prefix: ``<base_path>.arb``, ``<base_path>.lab``
        and (temporarily) ``<base_path>.evt`` are created.
        """
        started = time.perf_counter()
        stats = BuildStatistics(name=name or os.path.basename(base_path))
        arb_path = base_path + ".arb"
        lab_path = base_path + ".lab"
        evt_path = base_path + ".evt"

        labels = LabelTable(max_index=(1 << (8 * self.record_size - 2)) - 1)

        # ---- Pass 1: SAX run -> .evt file + label table + node counts ---- #
        n_nodes = 0
        with PagedWriter(evt_path, self.page_size, stats=stats.io) as evt_writer:
            for kind, label, is_text in events:
                index = labels.index_of(label, is_text=is_text)
                evt_writer.write(encode_event(index, kind == END, self.record_size))
                if kind == BEGIN:
                    n_nodes += 1
                    if labels.is_character_index(index):
                        stats.char_nodes += 1
                    else:
                        stats.element_nodes += 1
        if n_nodes == 0:
            raise StorageError("cannot build a database from an empty event stream")

        # ---- Pass 2: read .evt backwards, write .arb backwards ----------- #
        evt_reader = PagedReader(evt_path, self.page_size, stats=stats.io)
        total_size = n_nodes * self.record_size
        stack: list[_Frame] = []
        max_depth = 0
        previous_was_begin = False
        # Records flow past in exactly the order the page-summary accumulator
        # wants (reverse pre-order), so the `.idx` sidecar costs no extra pass.
        summary = SummaryAccumulator(n_nodes, self.record_size, self.page_size)
        with BackwardPagedWriter(arb_path, total_size, self.page_size, stats=stats.io) as arb_writer:
            for label_index, is_end in self._decoded_events_backward(evt_reader):
                if is_end:
                    if stack:
                        stack[-1].has_children = True
                    stack.append(_Frame(label_index, has_next_sibling=previous_was_begin))
                    max_depth = max(max_depth, len(stack))
                    previous_was_begin = False
                else:
                    frame = stack.pop()
                    if frame.label_index != label_index:
                        raise StorageError(
                            "event file is not well nested: begin/end labels do not match"
                        )
                    arb_writer.write(
                        encode_node(
                            frame.label_index,
                            frame.has_children,
                            frame.has_next_sibling,
                            self.record_size,
                        )
                    )
                    # The frames still open are the record's ancestors.
                    summary.add(frame.label_index, frame.has_children, frame.has_next_sibling, len(stack))
                    previous_was_begin = True
        if stack:
            raise StorageError("event file is not well nested: unmatched end events remain")

        # Every file the pointer bump will commit to must be durable *first*:
        # the splice path has always fsynced its generation files before the
        # swap, and a freshly built database deserves no weaker a story (a
        # power loss after the bump must never leave a torn `.idx` -- or
        # worse, a torn `.arb` -- behind a committed pointer).
        labels.save(lab_path, fsync=True)
        write_page_index(
            index_path_of(base_path),
            summary.finish(FIRST_TAG_INDEX + labels.n_tags),
            fsync=True,
        )
        with open(arb_path, "rb") as arb_handle:
            fsync_fd(arb_handle.fileno())
        stats.evt_file_size = os.path.getsize(evt_path)
        os.remove(evt_path)
        stats.arb_file_size = os.path.getsize(arb_path)
        stats.lab_file_size = os.path.getsize(lab_path)
        stats.n_tags = labels.n_tags
        stats.max_stack_depth = max_depth
        stats.seconds = time.perf_counter() - started

        # A build (or rebuild) is change number counter+1 of this base path:
        # the counter lands in the .meta sidecar (a reader's content key
        # carries it, so even a same-size same-mtime-tick rewrite can never
        # be served from stale cached pages) and the generation pointer is
        # reset to the plain generation-0 files.  The counter bump and the stale-
        # generation cleanup share the update subsystem's writer lock, so a
        # rebuild racing a concurrent apply_update can neither allocate the
        # same change number nor delete files the applier is mid-swap on.
        with exclusive_writer(base_path):
            counter = read_pointer(base_path).counter + 1
            _write_metadata(base_path, n_nodes, self.record_size, stats, counter=counter)
            fsync_directory(os.path.dirname(base_path) or ".")
            fault_point("build-files")
            write_pointer(base_path, GenerationPointer(generation=0, counter=counter))
            # A rebuild starts a fresh document lineage: generation files of
            # the superseded lineage would otherwise linger as bogus
            # "history" for stats, pinned opens and pruning.
            for generation in list_generations(base_path):
                if generation != 0:
                    remove_generation_files(base_path, generation)
        return stats

    def _decoded_events_backward(self, evt_reader: PagedReader):
        """The `.evt` records in reverse, decoded in batch where possible."""
        fmt = record_struct(self.record_size)
        if fmt is None:
            for raw in evt_reader.records_backward(self.record_size):
                yield decode_event(raw, self.record_size)
            return
        memo: dict[int, tuple[int, bool]] = {}
        lookup = memo.get
        for (value,) in evt_reader.unpack_backward(fmt):
            event = lookup(value)
            if event is None:
                event = memo[value] = decode_event_value(value, self.record_size)
            yield event


@dataclass
class _Frame:
    """Backward-pass stack frame: one per node whose end event has been read."""

    label_index: int
    has_next_sibling: bool
    has_children: bool = False


def _write_metadata(
    base_path: str, n_nodes: int, record_size: int, stats: BuildStatistics, counter: int = 0
) -> None:
    """Write the small `.meta` sidecar (node count, record size, Figure-5 counts).

    The paper's prototype derives the node count from the file size and fixes
    ``k = 2``; the sidecar keeps the format self-describing without changing
    the `.arb` layout, and a generation without one does not open.
    ``counter`` records which change of the base path created these files
    (the generation-pointer counter), which names their content in every
    page and structure cache.  The schema itself lives in
    :func:`repro.storage.generations.write_metadata`, shared with the
    update subsystem's spliced generations.
    """
    write_metadata(
        base_path,
        n_nodes=n_nodes,
        record_size=record_size,
        element_nodes=stats.element_nodes,
        char_nodes=stats.char_nodes,
        n_tags=stats.n_tags,
        counter=counter,
        generation=0,
        fsync=True,
    )


def build_database(
    source,
    base_path: str,
    *,
    record_size: int = DEFAULT_RECORD_SIZE,
    text_mode: str = "chars",
    name: str = "",
    page_size: int = 64 * 1024,
) -> BuildStatistics:
    """Convenience wrapper around :class:`DatabaseBuilder`.

    ``source`` may be an XML string, an :class:`~repro.tree.unranked.UnrankedTree`,
    or an iterable of ``(kind, label, is_text)`` events.
    """
    builder = DatabaseBuilder(record_size=record_size, page_size=page_size)
    if isinstance(source, UnrankedTree):
        return builder.build_from_tree(source, base_path, name=name)
    if isinstance(source, str):
        return builder.build_from_xml(source, base_path, text_mode=text_mode, name=name)
    return builder.build_from_events(source, base_path, name=name)
