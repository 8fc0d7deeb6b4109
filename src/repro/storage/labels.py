"""The `.lab` label-name table.

Labels are stored in `.arb` records as integer indexes.  Indexes ``0..255``
are reserved for text characters (the character with code point ``c`` has
index ``c``); every other label -- mostly element tag names -- is assigned an
index ``>= 256`` and its name is recorded in the companion ``.lab`` file as
the ``(i - 255)``-th whitespace-separated entry (Section 5).
"""

from __future__ import annotations

import os

from repro.errors import StorageError
from repro.storage.durability import fsync_file

__all__ = [
    "LabelTable",
    "RecordShapeLabelSets",
    "FIRST_TAG_INDEX",
    "CHARACTER_INDEX_LIMIT",
]

#: Indexes below this value denote text characters (the index is the code point).
CHARACTER_INDEX_LIMIT = 256
#: Index assigned to the first non-character label.
FIRST_TAG_INDEX = 256


class LabelTable:
    """Bidirectional mapping between label names and `.arb` label indexes."""

    def __init__(self, max_index: int = (1 << 14) - 1):
        self.max_index = max_index
        self._name_to_index: dict[str, int] = {}
        self._names: list[str] = []  # names for indexes FIRST_TAG_INDEX, FIRST_TAG_INDEX+1, ...

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def index_of(self, label: str, *, is_text: bool = False) -> int:
        """The index for ``label``, registering a new tag index if needed.

        Single characters of text are mapped to their code point when it fits
        in the reserved character range; everything else goes through the
        tag-name table.
        """
        if is_text and len(label) == 1 and ord(label) < CHARACTER_INDEX_LIMIT:
            return ord(label)
        existing = self._name_to_index.get(label)
        if existing is not None:
            return existing
        index = FIRST_TAG_INDEX + len(self._names)
        if index > self.max_index:
            raise StorageError(
                f"label table overflow: more than {self.max_index - FIRST_TAG_INDEX + 1} "
                "distinct tag names (increase the record size k)"
            )
        if not label or any(ch.isspace() for ch in label):
            # Neither survives the whitespace-separated `.lab` file.
            raise StorageError(f"tag names must be non-empty and free of whitespace: {label!r}")
        self._name_to_index[label] = index
        self._names.append(label)
        return index

    def name_of(self, index: int) -> str:
        """The label name for an index (characters map back to themselves)."""
        if index < CHARACTER_INDEX_LIMIT:
            return chr(index)
        position = index - FIRST_TAG_INDEX
        if position >= len(self._names):
            raise StorageError(f"unknown label index {index}")
        return self._names[position]

    def lookup(self, label: str) -> int | None:
        """The *tag* index of ``label`` if it is registered, else ``None``.

        Unlike :meth:`index_of`, this never registers a new tag, so the
        query side can probe a plan's labels against a read-only table.
        (A one-character label may additionally denote the text character
        with its code point; callers that care check that range themselves.)
        """
        return self._name_to_index.get(label)

    def is_character_index(self, index: int) -> bool:
        return index < CHARACTER_INDEX_LIMIT

    @property
    def n_tags(self) -> int:
        """Number of non-character labels (column (3) of Figure 5)."""
        return len(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def as_text(self) -> str:
        """The exact `.lab` file content of the current table.

        What :meth:`save` writes; the group-commit pipeline embeds it in the
        pointer payload so a torn ``.lab`` can be rebuilt after a crash.
        """
        return " ".join(self._names)

    def save(self, path: str, *, fsync: bool = False) -> None:
        """Write the table; ``fsync`` forces it to stable storage (the update
        subsystem needs every generation file durable before the pointer
        swap)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.as_text())
            if fsync:
                fsync_file(handle)

    @classmethod
    def load(cls, path: str, max_index: int = (1 << 14) - 1) -> "LabelTable":
        if not os.path.exists(path):
            raise StorageError(f"missing label file: {path}")
        table = cls(max_index=max_index)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        for name in content.split():
            table._name_to_index[name] = FIRST_TAG_INDEX + len(table._names)
            table._names.append(name)
        return table

    def file_size(self) -> int:
        """Size in bytes the ``.lab`` file will occupy."""
        if not self._names:
            return 0
        return sum(len(name.encode("utf-8")) for name in self._names) + len(self._names) - 1


class RecordShapeLabelSets:
    """Per-plan memo of node label sets keyed by the raw record *shape*.

    The two-phase disk loop (``plan/kernel.py``) turns each record into
    the alphabet symbol of a plan's bottom-up automaton:
    the schema's label set for the record's label name and child flags.
    Distinct records overwhelmingly share a handful of shapes
    ``(label_index, has_first_child, has_second_child, is_root)``, so the
    set is computed once per shape and the per-record work is one dict hit.
    The label name itself is resolved through the table only on a miss.

    It lives here so the scan and the page-skipping index, which must
    derive *exactly* the same label sets, share one source of truth.
    """

    __slots__ = ("_schema", "_table", "_memo")

    def __init__(self, schema, table: LabelTable):
        self._schema = schema
        self._table = table
        self._memo: dict[tuple, frozenset] = {}

    def for_record(self, label_index: int, has_first_child: bool,
                   has_second_child: bool, is_root: bool) -> frozenset:
        shape = (label_index, has_first_child, has_second_child, is_root)
        labels = self._memo.get(shape)
        if labels is None:
            labels = self._memo[shape] = self._schema.label_set_for(
                self._table.name_of(label_index),
                is_root=is_root,
                has_first_child=has_first_child,
                has_second_child=has_second_child,
            )
        return labels
