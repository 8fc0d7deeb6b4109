"""Writing a commit's new `.arb` and `.idx`: one splice of the old page grid.

The key observation that keeps updates cheap is a property of the encoding:
in first-child/next-sibling pre-order, an unranked subtree is a *contiguous
record range* ``[v, v + usize(v))``, and at most one record outside that
range (the parent or left sibling that points at ``v``) ever needs its
child/sibling flags patched.  A new generation is therefore emitted as a
**splice of the old page grid**: the unchanged ranges are copied
byte-for-byte in page-size chunks (never decoded), and only the affected
record ranges plus up to one patch record per operation are re-encoded --
the same "constant number of linear scans" discipline queries obey.

However many operations a commit holds it is *one* such pass: each
operation's edits, stated against the state that operation addresses, are
folded, through one list of *pieces*, into the edit list of the one
:func:`_splice` (:func:`_fold_edits`).  The `.idx` sidecar inherits the
summary of every page that moved by whole pages; the rest are computed from
the commit's structure, never by re-reading the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.storage.durability import fault_point, fsync_file
from repro.storage.pageindex import (
    PageIndex,
    index_path_of,
    load_page_index,
    write_page_index,
)
from repro.storage.paging import IOStatistics


@dataclass
class UpdateStatistics:
    """What one applied update cost, splice-level.

    ``bytes_copied`` is the payload reused from the old generation without
    decoding; ``records_reencoded`` counts the records actually re-emitted
    (the affected ranges plus at most one flag patch per operation).  ``io``
    aggregates the physical I/O of the analysis scan and the splice copy.
    """

    records_reencoded: int = 0
    bytes_copied: int = 0
    pages_spliced: int = 0
    analysis_cache_hit: bool = False
    seconds: float = 0.0
    io: IOStatistics = field(default_factory=IOStatistics)


# ---------------------------------------------------------------------- #
# Pieces: a group's edits as one edit list against the old file
# ---------------------------------------------------------------------- #

#: One stretch of an intermediate state of the record file: bytes ``[start,
#: end)`` of ``source`` -- a buffer of re-encoded records, or ``None`` for
#: the old `.arb` itself.
_Piece = tuple[bytes | None, int, int]


def _cut(pieces: list[_Piece], lo: int, hi: int | None = None) -> list[_Piece]:
    """The pieces describing bytes ``[lo, hi)`` of what ``pieces`` describe."""
    out: list[_Piece] = []
    position = 0
    for source, start, end in pieces:
        first = start + max(lo - position, 0)
        last = end if hi is None else min(start + hi - position, end)
        if first < last:
            out.append((source, first, last))
        position += end - start
    return out


def _fold_edits(
    edit_lists: list[list[tuple[int, int, bytes]]], old_size: int
) -> list[tuple[int, int, bytes]]:
    """The edits of a group's operations, each list in the coordinates of
    the state its operation addresses (ascending, disjoint), as one such
    list against the old file."""
    pieces: list[_Piece] = [(None, 0, old_size)]
    for edits in edit_lists:
        for offset, old_length, replacement in reversed(edits):  # back to front: offsets stay valid
            new = (replacement, 0, len(replacement))
            pieces = [*_cut(pieces, 0, offset), new, *_cut(pieces, offset + old_length)]
    # No operation reorders records, so the old ranges are still ascending:
    # whatever lies between two of them replaces the gap between them.
    folded: list[tuple[int, int, bytes]] = []
    position = 0
    buffer = b""
    for source, start, end in [*pieces, (None, old_size, old_size)]:
        if source is not None:
            buffer += source[start:end]
            continue
        if start > position or buffer:
            folded.append((position, start - position, buffer))
            buffer = b""
        position = end
    return folded


# ---------------------------------------------------------------------- #
# The splice
# ---------------------------------------------------------------------- #


def _splice(
    src_path: str,
    dst_path: str,
    file_size: int,
    edits: list[tuple[int, int, bytes]],
    stats: UpdateStatistics,
    page_size: int,
) -> None:
    """Emit ``dst`` as ``src`` with ``edits`` applied, copying in page chunks.

    The unchanged ranges are moved with plain buffered block copies on the
    page grid -- no record ever gets decoded.  The destination is durable
    on return (the commit's second data fsync).
    """
    io = stats.io
    first_write_pending = True

    def wrote() -> None:
        nonlocal first_write_pending
        if first_write_pending:
            first_write_pending = False
            fault_point("mid-arb")

    with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
        position = 0
        for offset, old_length, replacement in edits:
            if offset < position:
                raise StorageError("internal error: overlapping splice edits")
            _copy_range(src, dst, position, offset, page_size, stats, wrote)
            if replacement:
                dst.write(replacement)
                io.bytes_written += len(replacement)
                wrote()
            position = offset + old_length
        _copy_range(src, dst, position, file_size, page_size, stats, wrote)
        fsync_file(dst)


def _copy_range(src, dst, start: int, end: int, page_size: int, stats, wrote) -> None:
    if end <= start:
        return
    io = stats.io
    src.seek(start)
    io.seeks += 1
    remaining = end - start
    while remaining:
        chunk = src.read(min(page_size, remaining))
        if not chunk:
            raise StorageError("short read while splicing (file changed mid-update?)")
        dst.write(chunk)
        remaining -= len(chunk)
        stats.bytes_copied += len(chunk)
        stats.pages_spliced += 1
        io.bytes_read += len(chunk)
        io.bytes_written += len(chunk)
        io.pages_read += 1
        io.pages_written += 1
        wrote()


# ---------------------------------------------------------------------- #
# The `.idx` sidecar of the spliced generation
# ---------------------------------------------------------------------- #

#: One page's row of :class:`~repro.storage.pageindex.PageIndex`, or ``None``
#: for a *stale* page whose summary must be recomputed for the new generation.
_PageSummary = tuple[int, ...] | None


def _page_count(file_size: int, page_size: int) -> int:
    return (file_size + page_size - 1) // page_size


def _load_summaries(gen_base: str, file_size: int, record_size: int, page_size: int) -> list[_PageSummary]:
    """The per-page summaries of a generation's `.idx`, all stale when the
    sidecar is missing, torn or on another grid (best effort, like the
    sidecar itself: it only means recomputing more pages)."""
    index = load_page_index(index_path_of(gen_base))
    if (
        index is None
        or index.record_size != record_size
        or index.page_size != page_size
        or index.n_records * record_size != file_size
    ):
        return [None] * _page_count(file_size, page_size)
    return index.rows()


def _carry_summaries(
    old: list[_PageSummary],
    edits: list[tuple[int, int, bytes]],
    old_size: int,
    page_size: int,
) -> list[_PageSummary]:
    """The page summaries of a splice's output, inherited where possible.

    The splice copies whole old-file ranges; a new page lying wholly inside
    a range copied at a *page-aligned* shift holds exactly the records its
    old counterpart held and inherits that page's summary (stale or not).
    Every other page -- overlapping a re-encoded range, or shifted off the
    page grid -- is stale.
    """
    # Copied ranges in new-file byte coordinates, with their shift vs the old
    # file (new position - old position; edits are record-aligned, so shifts
    # always are too).
    copies: list[tuple[int, int, int]] = []
    old_position = 0
    new_position = 0
    for offset, old_length, replacement in [*edits, (old_size, 0, b"")]:
        if offset > old_position:
            length = offset - old_position
            copies.append((new_position, new_position + length, new_position - old_position))
            new_position += length
        new_position += len(replacement)
        old_position = offset + old_length
    new_size = new_position

    new: list[_PageSummary] = [None] * _page_count(new_size, page_size)
    for start, end, shift in copies:
        if shift % page_size:
            continue
        page = _page_count(start, page_size)  # first page starting inside the copy
        while page < len(new):
            new_lo = page * page_size
            new_hi = min(new_lo + page_size, new_size)
            if new_hi > end:
                break
            old_lo = new_lo - shift
            # A short last page only matches an equally short old page.
            if min(old_lo + page_size, old_size) - old_lo == new_hi - new_lo:
                new[page] = old[old_lo // page_size]
            page += 1
    return new


def _summarize(structure, start: int, end: int) -> tuple[int, ...]:
    """The :class:`~repro.storage.pageindex.PageIndex` row of the records
    ``[start, end)``: what :class:`~repro.storage.pageindex.SummaryAccumulator`'s
    backward stack simulation leaves of them, in closed form (the per-record
    work is sequence primitives).  A record pushes one entry and pops one per
    child flag; the flags pointing *out of* the window (its ``pops``) are the
    last record's first child and the next sibling of every record whose
    subtree runs to the window's end -- found hopping over the subtrees
    before them.  The records at the window's minimum depth are on the hop
    path that never descends: each hop lands after a subtree, no deeper than
    where it left, at the depth of the ancestors of ``start`` that still
    hold it (one descent from the root finds them).
    """
    usize, has_next = structure.usize, structure.has_next
    pops = int(start < end and usize[end - 1] > 1)
    node = start
    while node < end:
        if node + usize[node] >= end:
            pops += has_next[node]
            node += 1
        else:
            node += usize[node]
    flags = (end - start) - usize[start:end].count(1) + sum(has_next[start:end])
    bits = 0
    for label_index in set(structure.label_idx[start:end]):
        bits |= 1 << label_index
    ends = [ancestor + usize[ancestor] for ancestor in structure.path_to(start)[0]] if start < end else []
    depth = first = last = count = 0
    node = start
    while node < end:
        while ends and ends[-1] <= node:
            ends.pop()
        if not count or len(ends) < depth:
            depth, first, count = len(ends), node - start, 0
        last = node - start
        count += 1
        node += usize[node]
    return pops, (end - start) - (flags - pops), bits, depth, first, last, count


def _write_index(
    gen_base: str,
    summaries: list[_PageSummary],
    structure,
    *,
    record_size: int,
    page_size: int,
    n_label_indices: int,
) -> None:
    """Write a spliced generation's `.idx`, summarising its stale pages
    from the ``structure`` of the new generation (the only writer of a
    sidecar here).

    No fsync: the file is crc-guarded, and a torn sidecar only costs scan
    speed.
    """
    for page, summary in enumerate(summaries):
        if summary is None:
            # The records *starting* in the page, as the sidecar defines it.
            start = (page * page_size + record_size - 1) // record_size
            end = min(((page + 1) * page_size + record_size - 1) // record_size, structure.n)
            summaries[page] = _summarize(structure, start, end)
    index = PageIndex.from_rows(
        summaries,
        page_size=page_size,
        record_size=record_size,
        n_records=structure.n,
        n_label_indices=n_label_indices,
    )
    write_page_index(index_path_of(gen_base), index, mid_write_hook=lambda: fault_point("mid-idx"))
