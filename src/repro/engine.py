"""High-level public API: databases and queries.

:class:`Database` gives a single entry point over the execution paths of the
library.  Query evaluation is organised in a **plan layer**
(:mod:`repro.plan`): a query is compiled once into a
:class:`~repro.plan.plan.QueryPlan` (the parsed TMNF program plus the
lazily-memoised bottom-up/top-down automaton tables), cached in a keyed
:class:`~repro.plan.cache.PlanCache` -- so repeated and structurally-equal
queries reuse every transition computed so far, across calls *and across
documents* -- and executed:

* on disk, by default or with ``engine="disk"``, through
  :func:`~repro.plan.batch.evaluate_batch_on_disk`: two linear scans of the
  `.arb` file and a temporary state file, never materialising the tree.
  :meth:`Database.query` is a batch of one; :meth:`Database.query_many`
  runs *k* queries in the **same single pair of linear scans** by running
  the k bottom-up automata in lockstep per node;
* in memory, or with ``engine="memory"`` (the differential oracle), plan by
  plan by the :class:`~repro.core.two_phase.TwoPhaseEvaluator` over the
  in-memory binary tree.

Where the data lives picks the evaluator; ``engine=`` only asserts it or
asks for the oracle.  The one-pass streaming engine (:mod:`repro.streaming`)
and the datalog fixpoint (:mod:`repro.baselines.datalog`) are the paper's
baseline and reference semantics, called directly, not routes of this API.

Queries can be written in TMNF / caterpillar syntax (the native language) or
in the supported XPath fragment (translated to TMNF first).

Example
-------
>>> from repro import Database
>>> db = Database.from_xml("<library><book/><dvd/><book/></library>")
>>> result = db.query("QUERY :- V.Label[book];")
>>> [db.label(v) for v in result.selected_nodes()]
['book', 'book']
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.two_phase import EvaluationStatistics
from repro.errors import EvaluationError, StorageError
from repro.plan.batch import evaluate_batch_on_disk
from repro.plan.cache import PlanCache, default_plan_cache
from repro.plan.options import ExecutionOptions
from repro.plan.plan import QueryPlan, compile_query, plans_locked
from repro.plan.result import BatchQueryResult, QueryResult
from repro.storage.build import build_database
from repro.storage.database import ArbDatabase
from repro.storage.paging import DEFAULT_PAGE_SIZE, IOStatistics, PagerConfig
from repro.storage.update import apply_many
from repro.tmnf.program import TMNFProgram
from repro.tree.binary import BinaryTree
from repro.tree.unranked import UnrankedTree
from repro.tree.xml_io import parse_xml, parse_xml_file, serialize_with_selection

__all__ = ["Database", "QueryResult", "BatchQueryResult", "compile_query"]


class Database:
    """A queryable tree database, either in memory or in secondary storage.

    ``plan_cache`` defaults to the process-wide shared cache
    (:func:`repro.plan.cache.default_plan_cache`), so query plans -- and the
    memoised automata inside them -- are reused across databases.  Pass a
    private :class:`~repro.plan.cache.PlanCache` to isolate a database, or
    ``memoize=False`` on a query to bypass the cache entirely.
    """

    def __init__(
        self,
        *,
        binary: BinaryTree | None = None,
        unranked: UnrankedTree | None = None,
        disk: ArbDatabase | None = None,
        name: str = "",
        plan_cache: PlanCache | None = None,
    ):
        if binary is None and unranked is None and disk is None:
            raise EvaluationError("a Database needs a tree or an on-disk .arb path")
        self._binary = binary
        self._unranked = unranked
        self._disk = disk
        self.name = name
        self.plan_cache = plan_cache if plan_cache is not None else default_plan_cache()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_xml(cls, document: str, *, text_mode: str = "chars", name: str = "") -> "Database":
        unranked = parse_xml(document, text_mode=text_mode)
        return cls(unranked=unranked, binary=BinaryTree.from_unranked(unranked), name=name)

    @classmethod
    def from_xml_file(cls, path: str, *, text_mode: str = "chars") -> "Database":
        unranked = parse_xml_file(path, text_mode=text_mode)
        return cls(unranked=unranked, binary=BinaryTree.from_unranked(unranked), name=str(path))

    @classmethod
    def from_unranked(cls, tree: UnrankedTree, name: str = "") -> "Database":
        return cls(unranked=tree, binary=BinaryTree.from_unranked(tree), name=name)

    @classmethod
    def open(cls, base_path: str, *, pager: "PagerConfig | None" = None,
             generation: int | None = None,
             page_size: int = DEFAULT_PAGE_SIZE) -> "Database":
        """Open an on-disk `.arb` database; queries will run in two linear scans.

        ``pager`` optionally attaches a shared
        :class:`~repro.storage.bufferpool.BufferPool` to every scan (see
        :func:`repro.storage.bufferpool.resolve_pager`).  With or without
        it, the reported I/O counters are identical; only wall-clock time
        changes.

        Opening acquires a snapshot: the database's generation pointer is
        resolved here, once, and every scan this object ever runs reads
        that generation -- concurrent :meth:`apply` calls (from other
        handles, threads or processes) never change the answers of an open
        handle.  ``generation`` pins an explicit generation instead;
        :meth:`refresh` re-resolves the pointer in place.
        """
        return cls(
            disk=ArbDatabase.open(base_path, page_size=page_size, pager=pager,
                                  generation=generation),
            name=str(base_path),
        )

    @classmethod
    def build(cls, source, base_path: str, *, text_mode: str = "chars", name: str = "",
              pager: "PagerConfig | None" = None,
              page_size: int = DEFAULT_PAGE_SIZE) -> "Database":
        """Create an `.arb` database from XML / a tree / an event stream, then open it.

        ``page_size`` sets both the build chunking and the scan page grid
        (the ``.idx`` sidecar summarises pages of exactly this size).
        """
        build_database(source, base_path, text_mode=text_mode, name=name,
                       page_size=page_size)
        return cls.open(base_path, pager=pager, page_size=page_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_on_disk(self) -> bool:
        return self._disk is not None

    @property
    def disk(self) -> ArbDatabase | None:
        """The on-disk database handle (``None`` for in-memory databases)."""
        return self._disk

    @property
    def n_nodes(self) -> int:
        if self._disk is not None:
            return self._disk.n_nodes
        return len(self._require_binary())

    @property
    def generation(self) -> int:
        """The pinned `.arb` generation (0 for in-memory databases)."""
        return self._disk.generation if self._disk is not None else 0

    def label(self, node: int) -> str:
        """The label of ``node``.

        On an on-disk database this is a single direct `.arb` record read
        (one seek, ``record_size`` bytes); the tree is **not** materialised.
        """
        if self._binary is not None:
            return self._binary.labels[node]
        if self._disk is not None:
            return self._disk.label_of(node)
        return self._require_binary().labels[node]

    def binary_tree(self) -> BinaryTree:
        """The in-memory binary tree (materialised from disk on first use)."""
        return self._require_binary()

    def unranked_tree(self) -> UnrankedTree:
        if self._unranked is None:
            self._unranked = self._require_binary().to_unranked()
        return self._unranked

    def _require_binary(self) -> BinaryTree:
        if self._binary is None:
            if self._disk is None:
                raise EvaluationError("database has no tree")
            self._binary = self._disk.to_binary_tree()
        return self._binary

    def close(self) -> None:
        """Release the on-disk point-lookup handle (no-op for memory databases).

        Scans open and close their own descriptors; only :meth:`label` /
        :meth:`ArbDatabase.read_record` keep a lazily-opened handle around.
        The database remains usable after closing (the handle reopens on the
        next point lookup).
        """
        if self._disk is not None:
            self._disk.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Updates (copy-on-write; on-disk databases only)
    # ------------------------------------------------------------------ #

    def refresh(self) -> "Database":
        """Re-resolve the generation pointer and move this handle forward.

        No-op for in-memory databases and when no update has landed.  Any
        materialised in-memory mirror of an outdated generation is dropped.
        """
        if self._disk is None:
            return self
        disk = self._disk
        current = ArbDatabase.open(
            disk.logical_base_path, page_size=disk.page_size, pager=disk.pager
        )
        # Compare the change counter, not just the generation number: an
        # in-place rebuild resets the generation to 0 while rewriting the
        # files, and only the counter betrays it.
        if (current.generation, current.change_counter) != (
            disk.generation,
            disk.change_counter,
        ):
            disk.close()
            self._disk = current
            self._binary = None
            self._unranked = None
        return self

    def apply(self, update, *, retain_generations: int | None = None):
        """Apply one update, or a sequence **one generation per operation**.

        A single operation is ``apply_many([update])``: one
        :class:`~repro.storage.update.UpdateResult`.  A list or tuple is the
        same call once per operation -- each lands as its own generation
        (its own WAL append, fsyncs and pointer swap) and addresses the
        state its predecessor produced -- and returns the list of results;
        a failure leaves the operations before it committed.  Use
        :meth:`apply_many` to land a sequence as one generation.
        """
        if not isinstance(update, (list, tuple)):
            return self.apply_many([update], retain_generations=retain_generations)
        results = []
        for op in update:
            if results and results[-1].counter != self._disk.change_counter:
                # The refresh after the previous commit found a foreign
                # writer's generation: ``op``'s node ids address a state
                # that is no longer current.
                raise StorageError(
                    f"{self.name}: concurrent update conflict -- another writer "
                    f"landed between two operations of the sequence; node ids "
                    f"may be stale (refresh and retry)"
                )
            results.append(self.apply_many([op], retain_generations=retain_generations))
        return results

    def apply_many(self, ops, *, retain_generations: int | None = None):
        """Commit ``ops`` copy-on-write as **one group**: one generation.

        The one engine entry to :func:`repro.storage.update.apply_many`.
        Each operation addresses the state its predecessor produced; the
        whole group is spliced into one new `.arb` generation beside the
        current one, behind one WAL append, two data fsyncs and one atomic
        pointer swap whatever its length.  This handle then
        :meth:`refresh`\\ es onto the new generation, while every *other*
        open handle (and every in-flight scan) keeps its snapshot.  Returns
        one :class:`~repro.storage.update.UpdateResult`.

        The operations' node ids are interpreted against **this handle's**
        pinned generation: if another writer advanced the database since
        this handle (last) resolved the pointer, the group is refused whole
        with a conflict :class:`~repro.errors.StorageError` rather than
        relabelling or deleting whatever now lives at those ids --
        :meth:`refresh`, re-derive the ids, and retry.
        """
        if self._disk is None:
            raise EvaluationError(
                "updates apply to on-disk databases; build one with Database.build"
            )
        try:
            # The handle's page size doubles as the `.idx` summary grid, so
            # the splice must write the new generation's sidecar on the same
            # grid this handle (and its siblings) scan with.
            return apply_many(
                self._disk.logical_base_path, ops, retain_generations=retain_generations,
                page_size=self._disk.page_size,
                expected_generation=self._disk.generation,
                expected_counter=self._disk.change_counter,
            )
        finally:
            self.refresh()

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan(
        self,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        memoize: bool = True,
    ) -> tuple[QueryPlan, bool | None]:
        """The (cached) plan for ``query`` and whether the lookup was a hit.

        With ``memoize=False`` the plan cache is bypassed (a fresh
        non-memoising plan is compiled; used by the laziness ablation) and the
        hit flag is ``None``.
        """
        if not memoize:
            return (
                QueryPlan.from_query(
                    query, language=language, query_predicate=query_predicate,
                    memoize=False,
                ),
                None,
            )
        return self.plan_cache.lookup(
            query, language=language, query_predicate=query_predicate
        )

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: str | TMNFProgram,
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        memoize: bool = True,
        engine: str | None = None,
        temp_dir: str | None = None,
    ) -> QueryResult:
        """Evaluate a node-selecting query and return the selected nodes.

        ``engine`` is ``"auto"``/``None`` (the disk scan pair on disk, the
        in-memory evaluator otherwise), ``"disk"`` (an error in memory) or
        ``"memory"``.  On disk the default is a lockstep batch of one: the
        same scan pair, page skipping and loop as ``query_many([query])``.
        """
        options = ExecutionOptions(engine=engine, temp_dir=temp_dir)
        plan, hit = self.plan(
            query, language=language, query_predicate=query_predicate, memoize=memoize
        )
        return self.execute_plans([plan], options, hits=[hit])[0]

    def query_many(
        self,
        queries: Sequence[str | TMNFProgram],
        *,
        language: str = "tmnf",
        query_predicate: str | tuple[str, ...] | None = None,
        memoize: bool = True,
        engine: str | None = None,
        temp_dir: str | None = None,
        collect_selected_nodes: bool = True,
    ) -> BatchQueryResult:
        """Evaluate ``k`` queries together; on disk, in one pair of linear scans.

        Over an on-disk database (and ``engine`` of ``None``/``"auto"``/
        ``"disk"``) the k bottom-up automata run in lockstep per node during
        **one** backward scan, writing one composite entry per node to the
        temporary state file, followed by **one** forward scan for the k
        top-down automata: the `.arb` file is read exactly twice however
        large the batch is (see :attr:`BatchQueryResult.arb_io`), less the
        pages the generation's ``.idx`` sidecar lets a selective batch skip.
        Otherwise the queries are evaluated one by one in memory.
        """
        if not queries:
            raise EvaluationError("query_many needs at least one query")
        plans, hits = zip(*(
            self.plan(q, language=language, query_predicate=query_predicate, memoize=memoize)
            for q in queries
        ))
        options = ExecutionOptions(
            engine=engine, temp_dir=temp_dir, collect_selected_nodes=collect_selected_nodes
        )
        return self.execute_plans(plans, options, hits=hits)

    def execute_plans(
        self,
        plans: Sequence[QueryPlan],
        options: ExecutionOptions,
        *,
        hits: Sequence[bool | None] = (),
    ) -> BatchQueryResult:
        """Run compiled ``plans`` over this database: the one plan dispatcher.

        :meth:`query`, :meth:`query_many`, the collection shard worker and
        the query service all end here, and the engine is picked once per
        call.  An on-disk database under ``options.engine`` of
        ``None``/``"auto"``/``"disk"`` runs the whole list as **one** lockstep
        scan pair (:func:`~repro.plan.batch.evaluate_batch_on_disk`) -- a
        single query is a batch of one.  In memory, or under ``"memory"``,
        each plan runs the two-phase evaluator over the binary tree.

        The plans' locks (:func:`~repro.plan.plan.plans_locked`) are held
        throughout, so callers on any number of threads may share cached
        plans.  ``hits`` are the plan-cache lookup flags to record on the
        per-query statistics (``None`` entries, or no ``hits`` at all, leave
        them untouched).
        """
        disk = self._disk
        if options.engine == "disk" and disk is None:
            raise EvaluationError("engine 'disk' needs an on-disk database")
        with plans_locked(plans):
            if disk is not None and options.engine != "memory":
                batch = evaluate_batch_on_disk(plans, disk, options)
            else:
                tree = self.binary_tree()
                results = []
                for plan in plans:
                    plan.begin_run()
                    evaluation = plan.evaluator.evaluate(tree)
                    selected = evaluation.selected
                    counts = {pred: len(nodes) for pred, nodes in selected.items()}
                    if not options.collect_selected_nodes:
                        selected = {pred: [] for pred in selected}
                    results.append(QueryResult(
                        program=plan.program, selected=selected, counts=counts,
                        statistics=evaluation.statistics, io=IOStatistics(),
                        backend="memory",
                    ))
                statistics = EvaluationStatistics.merged(r.statistics for r in results)
                statistics.nodes = self.n_nodes
                batch = BatchQueryResult(results=results, statistics=statistics)
        if disk is not None:
            batch.snapshot = (disk.generation, disk.change_counter)
        for hit, result in zip(hits, batch.results):
            if hit is not None:
                result.statistics.plan_cache_hits = int(hit)
                result.statistics.plan_cache_misses = int(not hit)
        return batch

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def to_xml(self, selected: Iterable[int] = frozenset()) -> str:
        """Serialise the document with ``selected`` nodes marked up.

        This is the paper's default output mode ("the entire XML document is
        returned with selected nodes marked up in the usual XML fashion").
        """
        return serialize_with_selection(self.unranked_tree(), selected)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        location = "disk" if self.is_on_disk else "memory"
        return f"Database({self.name or '<anonymous>'}, {self.n_nodes} nodes, {location})"
