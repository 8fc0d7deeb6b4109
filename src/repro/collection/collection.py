"""A managed corpus of on-disk Arb databases, queried in parallel.

:class:`Collection` scales the single-document story of the paper out to a
corpus: many `.arb` databases under one root directory, registered in a
manifest, evaluated shard-parallel with the per-document I/O guarantees
intact -- each document is still touched by a constant number of linear
scans per batch, so corpus I/O grows linearly in corpus size and is
independent of how many queries ride in one batch.

Example
-------
>>> from repro.collection import Collection
>>> collection = Collection.create(root)            # doctest: +SKIP
>>> collection.add_document("<a><b/></a>", doc_id="one")    # doctest: +SKIP
>>> result = collection.query("QUERY :- V.Label[b];", n_workers=4)  # doctest: +SKIP
>>> result.count()                                   # doctest: +SKIP
1
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from repro.collection.executor import run_collection_query
from repro.collection.manifest import (
    DOCUMENTS_DIR,
    MANIFEST_NAME,
    CollectionManifest,
    DocumentEntry,
    validate_doc_id,
)
from repro.collection.result import CollectionQueryResult
from repro.errors import StorageError
from repro.plan.cache import PlanCache, default_plan_cache
from repro.plan.options import ExecutionOptions
from repro.storage.build import build_database
from repro.storage.generations import exclusive_writer, read_pointer
from repro.storage.update import apply_many
from repro.tmnf.program import TMNFProgram

__all__ = ["Collection"]


class Collection:
    """Many on-disk Arb databases under one root, one query surface.

    ``plan_cache`` defaults to the process-wide shared cache, exactly like
    :class:`~repro.engine.Database`; it is the keyed cache through which a
    single-shard query shares compiled plans (and their memoised automata)
    across every document of the corpus.
    """

    def __init__(
        self,
        root: str,
        manifest: CollectionManifest,
        *,
        plan_cache: PlanCache | None = None,
    ):
        self.root = os.path.abspath(root)
        self.manifest = manifest
        self.plan_cache = plan_cache if plan_cache is not None else default_plan_cache()

    # ------------------------------------------------------------------ #
    # Opening / creating
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, root: str, *, name: str = "",
               plan_cache: PlanCache | None = None) -> "Collection":
        """Create an empty collection at ``root`` (the directory may exist)."""
        if os.path.exists(os.path.join(root, MANIFEST_NAME)):
            raise StorageError(f"collection already exists: {root}")
        os.makedirs(os.path.join(root, DOCUMENTS_DIR), exist_ok=True)
        manifest = CollectionManifest(name=name or os.path.basename(os.path.abspath(root)))
        collection = cls(root, manifest, plan_cache=plan_cache)
        manifest.save(collection.root)
        return collection

    @classmethod
    def open(cls, root: str, *, plan_cache: PlanCache | None = None) -> "Collection":
        """Open an existing collection (its manifest must exist)."""
        return cls(root, CollectionManifest.load(root), plan_cache=plan_cache)

    @classmethod
    def open_or_create(cls, root: str, *, name: str = "",
                       plan_cache: PlanCache | None = None) -> "Collection":
        if os.path.exists(os.path.join(root, MANIFEST_NAME)):
            return cls.open(root, plan_cache=plan_cache)
        return cls.create(root, name=name, plan_cache=plan_cache)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def add_document(self, source, *, doc_id: str | None = None,
                     text_mode: str = "chars", save: bool = True) -> DocumentEntry:
        """Build an `.arb` database from ``source`` and register it.

        ``source`` is anything :func:`~repro.storage.build.build_database`
        accepts (an XML string, an unranked tree, or an event stream).  The
        database files are created under ``<root>/docs/`` and the manifest
        is updated and saved atomically after the build succeeds.  Bulk
        loaders pass ``save=False`` and call :meth:`save_manifest` once at
        the end -- saving after every document would rewrite the (growing)
        manifest n times.
        """
        if doc_id is None:
            doc_id = f"doc-{len(self.manifest):05d}"
        validate_doc_id(doc_id)
        if doc_id in self.manifest:
            raise StorageError(f"duplicate document id: {doc_id!r}")
        base = os.path.join(DOCUMENTS_DIR, doc_id)
        stats = build_database(source, os.path.join(self.root, base),
                               text_mode=text_mode, name=doc_id)
        entry = self.manifest.add(
            DocumentEntry(
                doc_id=doc_id,
                base=base,
                n_nodes=stats.total_nodes,
                element_nodes=stats.element_nodes,
                char_nodes=stats.char_nodes,
                n_tags=stats.n_tags,
                arb_bytes=stats.arb_file_size,
                counter=read_pointer(os.path.join(self.root, base)).counter,
            )
        )
        if save:
            self.manifest.save(self.root)
        return entry

    def add_xml_file(self, path: str, *, doc_id: str | None = None,
                     text_mode: str = "chars", save: bool = True) -> DocumentEntry:
        """Add one XML file; the document id defaults to the file-name stem."""
        if doc_id is None:
            doc_id = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as handle:
            document = handle.read()
        return self.add_document(document, doc_id=doc_id, text_mode=text_mode,
                                 save=save)

    def save_manifest(self) -> str:
        """Write the manifest to disk (atomic replace); returns its path."""
        return self.manifest.save(self.root)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def apply(self, doc_id: str, update, *, retain_generations: int | None = None):
        """Apply one update to a document, or a sequence **one generation
        per operation**.

        A single operation is ``apply_many(doc_id, [update])``: one
        :class:`~repro.storage.update.UpdateResult`.  A list or tuple is
        the same call once per operation and returns the list of results:
        the manifest is advanced and saved after **every** operation, so a
        mid-sequence failure leaves it pointing at the last generation
        that actually landed.  Use :meth:`apply_many` to land a sequence as
        one generation behind one manifest save.
        """
        if not isinstance(update, (list, tuple)):
            return self.apply_many(doc_id, [update], retain_generations=retain_generations)
        return [
            self.apply_many(doc_id, [op], retain_generations=retain_generations)
            for op in update
        ]

    def apply_many(self, doc_id: str, ops: Sequence, *,
                   retain_generations: int | None = None):
        """Commit ``ops`` to one document copy-on-write as **one group**.

        The one collection entry to :func:`repro.storage.update.apply_many`:
        the document gains one new `.arb` generation (one WAL append, one
        data fsync on the final `.arb`, one pointer swap), the manifest
        entry is replaced with one carrying the new generation and node
        counts, and the manifest is saved once.  The group is atomic:
        either every operation is reflected in the new generation or the
        document (and the manifest) stays untouched.  Collection queries
        that started before the swap keep evaluating the generations they
        pinned at coordination time; new queries see the new generation.
        Returns the :class:`~repro.storage.update.UpdateResult`.

        Node ids are interpreted against the generation the manifest
        records; a foreign writer having advanced the document meanwhile
        is refused as a conflict.

        ``retain_generations`` prunes history; keep it generous enough to
        cover in-flight collection queries, which pin their generations at
        coordination time and only open each document when its shard worker
        reaches it (a pruned-away pinned generation fails that open).
        """
        # One writer per collection at a time, threads and processes alike:
        # two applies to different documents share the manifest save.
        with exclusive_writer(os.path.join(self.root, "collection")):
            # Another *process* may have advanced other documents since this
            # manifest was loaded; adopt its generation bumps so our save
            # cannot roll them back (a collection-level lost update).  Local
            # unsaved additions are kept -- only newer generations merge in.
            self._adopt_saved_generations()
            entry = self.manifest.get(doc_id)
            result = apply_many(
                entry.base_path(self.root),
                ops,
                retain_generations=retain_generations,
                expected_generation=entry.generation,
                # Counter 0 means an entry from before the counter existed:
                # fall back to the generation-only guard for compatibility.
                expected_counter=entry.counter or None,
            )
            self.manifest.replace(
                DocumentEntry(
                    doc_id=doc_id,
                    base=entry.base,
                    n_nodes=result.n_nodes,
                    element_nodes=result.element_nodes,
                    char_nodes=result.char_nodes,
                    n_tags=result.n_tags,
                    arb_bytes=result.arb_bytes,
                    generation=result.new_generation,
                    counter=result.counter,
                )
            )
            self.manifest.save(self.root)
            return result

    def _adopt_saved_generations(self) -> None:
        """Merge newer per-document generations from the saved manifest."""
        try:
            saved = CollectionManifest.load(self.root)
        except StorageError:
            return
        for entry in saved:
            if entry.doc_id in self.manifest:
                mine = self.manifest.get(entry.doc_id)
                # The counter is the monotonic "newer" order; fall back to
                # the generation number for counter-less legacy entries.
                if (entry.counter, entry.generation) > (mine.counter, mine.generation):
                    self.manifest.replace(entry)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def documents(self) -> list[DocumentEntry]:
        return list(self.manifest)

    @property
    def doc_ids(self) -> list[str]:
        return self.manifest.doc_ids

    @property
    def n_nodes(self) -> int:
        """Total node count of the corpus (from the manifest)."""
        return self.manifest.total_nodes

    def __len__(self) -> int:
        return len(self.manifest)

    def __iter__(self) -> Iterator[DocumentEntry]:
        return iter(self.manifest)

    def open_database(self, doc_id: str):
        """A :class:`~repro.engine.Database` on one document, sharing the cache.

        The handle is pinned to the generation the manifest records -- the
        same snapshot collection queries read.
        """
        from repro.engine import Database

        entry = self.manifest.get(doc_id)
        database = Database.open(entry.base_path(self.root), generation=entry.generation)
        database.plan_cache = self.plan_cache
        return database

    def stats(self) -> dict[str, object]:
        """Corpus totals plus the shared plan cache's counters."""
        return {
            "name": self.manifest.name,
            "documents": len(self.manifest),
            "total_nodes": self.manifest.total_nodes,
            "total_arb_bytes": self.manifest.total_arb_bytes,
            **{f"plan_cache_{k}": v for k, v in self.plan_cache.stats().items()},
        }

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        engine: str | None = None,
        n_workers: int = 1,
        collect_selected_nodes: bool = True,
        temp_dir: str | None = None,
    ) -> CollectionQueryResult:
        """Evaluate one query over every document of the collection."""
        return self.query_many(
            [query],
            language=language,
            query_predicate=query_predicate,
            engine=engine,
            n_workers=n_workers,
            collect_selected_nodes=collect_selected_nodes,
            temp_dir=temp_dir,
        )

    def query_many(
        self,
        queries: Sequence[str | TMNFProgram],
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        engine: str | None = None,
        n_workers: int = 1,
        collect_selected_nodes: bool = True,
        temp_dir: str | None = None,
    ) -> CollectionQueryResult:
        """Evaluate ``k`` queries over every document, sharded across workers.

        Per document, the batch rides the lockstep disk evaluator (one
        backward plus one forward scan of that document's `.arb` file,
        independent of ``k``), as :meth:`Database.query_many
        <repro.engine.Database.query_many>` does; :meth:`query` is a batch of
        one.
        ``n_workers`` picks the pool: see :mod:`repro.collection.executor`.
        """
        options = ExecutionOptions(
            engine=engine, temp_dir=temp_dir, collect_selected_nodes=collect_selected_nodes
        )
        return run_collection_query(
            self.documents, self.root, list(queries), cache=self.plan_cache, options=options,
            language=language, query_predicate=query_predicate,
            n_workers=n_workers,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Collection({self.manifest.name!r}, {len(self.manifest)} documents, "
            f"{self.manifest.total_nodes} nodes)"
        )
