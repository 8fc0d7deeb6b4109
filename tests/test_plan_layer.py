"""Tests for the query-plan layer: caching, engine routing and batches."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro import Database, TMNFProgram, evaluate_fixpoint
from repro.cli import main as cli_main
from repro.core.two_phase import EvaluationStatistics
from repro.datasets.treebank import TAGS, generate_treebank
from repro.errors import EvaluationError
from repro.plan import ExecutionOptions, PlanCache, QueryPlan, default_plan_cache
from repro.storage.paging import DEFAULT_PAGE_SIZE, IOStatistics
from repro.streaming import stream_select
from repro.xpath import xpath_to_program

DOCUMENT = "<library><book><title>ab</title></book><dvd/><book/></library>"
BOOK_QUERY = "QUERY :- V.Label[book];"


def _memory_database() -> Database:
    database = Database.from_xml(DOCUMENT)
    database.plan_cache = PlanCache()
    return database


def _disk_database(tmp_path, document: str = DOCUMENT, *, text_mode: str = "chars") -> Database:
    database = Database.build(document, str(tmp_path / "db"), text_mode=text_mode)
    database.plan_cache = PlanCache()
    return database


class TestPlanCache:
    def test_second_query_is_a_hit_with_zero_recompiled_automata(self):
        database = _memory_database()
        first = database.query(BOOK_QUERY)
        assert first.statistics.plan_cache_misses == 1
        assert first.statistics.plan_cache_hits == 0
        assert first.statistics.bu_transitions > 0

        second = database.query(BOOK_QUERY)
        assert second.statistics.plan_cache_hits == 1
        assert second.statistics.plan_cache_misses == 0
        # The automata are fully warm: nothing is recompiled.
        assert second.statistics.bu_transitions == 0
        assert second.statistics.td_transitions == 0
        assert second.selected_nodes() == first.selected_nodes()

    def test_disk_repeat_is_a_hit_with_zero_recompiled_automata(self, tmp_path):
        database = _disk_database(tmp_path)
        first = database.query(BOOK_QUERY)
        second = database.query(BOOK_QUERY)
        assert first.backend == "disk" and second.backend == "disk"
        assert second.statistics.plan_cache_hits == 1
        assert second.statistics.bu_transitions == 0
        assert second.statistics.td_transitions == 0

    def test_structurally_equal_spellings_share_a_plan(self):
        database = _memory_database()
        database.query("QUERY :- V.Label[book];")
        result = database.query("  QUERY   :-  V.Label[book] ;  ")
        assert result.statistics.plan_cache_hits == 1
        assert result.statistics.bu_transitions == 0

    def test_plans_are_shared_across_documents(self, tmp_path):
        cache = PlanCache()
        one = Database.from_xml(DOCUMENT)
        one.plan_cache = cache
        two = Database.build("<library><book/></library>", str(tmp_path / "other"))
        two.plan_cache = cache
        one.query(BOOK_QUERY)
        result = two.query(BOOK_QUERY)
        # Same plan object serves both documents (and both evaluators).
        assert result.statistics.plan_cache_hits == 1
        assert len(cache) == 1

    def test_program_objects_hit_structurally(self):
        database = _memory_database()
        program = TMNFProgram.parse(BOOK_QUERY)
        database.query(program)
        again = database.query(TMNFProgram.parse(BOOK_QUERY))
        assert again.statistics.plan_cache_hits == 1

    def test_lru_eviction_bounds_live_plans(self):
        database = _memory_database()
        database.plan_cache = PlanCache(max_plans=2)
        for label in ("book", "dvd", "title"):
            database.query(f"QUERY :- V.Label[{label}];")
        assert len(database.plan_cache) == 2
        # The oldest plan (book) was evicted; querying it again is a miss.
        result = database.query(BOOK_QUERY)
        assert result.statistics.plan_cache_misses == 1

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_batch_statistics_fold_the_plan_cache_lookups(self, tmp_path, on_disk):
        document = "<a><b/><c/><b/></a>"
        if on_disk:
            database = _disk_database(tmp_path, document)
        else:
            database = Database.from_xml(document)
            database.plan_cache = PlanCache()
        batch = database.query_many(["//b", "//c", "//b"], language="xpath")
        per_query = [(r.statistics.plan_cache_hits, r.statistics.plan_cache_misses) for r in batch]
        assert per_query == [(0, 1), (0, 1), (1, 0)]
        assert batch.statistics.plan_cache_hits == 1
        assert batch.statistics.plan_cache_misses == 2

    def test_memoize_false_bypasses_the_cache(self):
        database = _memory_database()
        result = database.query(BOOK_QUERY, memoize=False)
        assert result.statistics.plan_cache_hits == 0
        assert result.statistics.plan_cache_misses == 0
        assert len(database.plan_cache) == 0

    def test_contains_and_clear(self):
        database = _memory_database()
        database.query(BOOK_QUERY)
        assert BOOK_QUERY in database.plan_cache
        assert database.plan_cache.stats()["misses"] == 1
        database.plan_cache.clear()
        assert BOOK_QUERY not in database.plan_cache
        assert len(database.plan_cache) == 0

    def test_default_cache_is_process_wide(self):
        assert Database.from_xml("<a/>").plan_cache is default_plan_cache()


class TestBackendsAndPlanner:
    def test_auto_routing(self, tmp_path):
        memory = _memory_database()
        assert memory.query(BOOK_QUERY).backend == "memory"
        disk = _disk_database(tmp_path)
        assert disk.query(BOOK_QUERY).backend == "disk"
        # Predicate-free downward XPath is a batch of one like any query.
        assert disk.query("//book", language="xpath").backend == "disk"

    def test_explicit_engines_agree(self, tmp_path):
        disk = _disk_database(tmp_path, text_mode="ignore")
        expected = [1, 4]
        for engine in ("memory", "disk"):
            result = disk.query("//book", language="xpath", engine=engine)
            assert result.backend == engine
            assert result.selected_nodes() == expected, engine
        # The reference semantics and the one-pass baseline, called directly.
        program = xpath_to_program("//book")
        assert evaluate_fixpoint(program, disk.binary_tree()).selected["QUERY"] == expected
        assert stream_select(disk.unranked_tree(), "//book") == expected

    def test_streaming_matches_two_phase_with_char_nodes(self, tmp_path):
        disk = _disk_database(tmp_path)  # chars mode: 'a'/'b' char nodes exist
        two_phase = disk.query("//book", language="xpath", engine="disk")
        assert stream_select(disk.unranked_tree(), "//book") == two_phase.selected_nodes()

    @pytest.mark.parametrize("engine", ["quantum", "streaming", "fixpoint"])
    def test_unknown_engine(self, engine):
        database = _memory_database()
        with pytest.raises(EvaluationError, match="unknown engine"):
            database.query(BOOK_QUERY, engine=engine)
        with pytest.raises(EvaluationError, match="unknown engine"):
            ExecutionOptions(engine=engine)

    def test_engine_names_the_backend_whatever_the_database(self, tmp_path):
        disk = _disk_database(tmp_path)
        assert disk.query(BOOK_QUERY, engine="memory").backend == "memory"
        memory = _memory_database()
        with pytest.raises(EvaluationError):
            memory.query(BOOK_QUERY, engine="disk")

    def test_memory_batch_statistics_fold_every_run(self, tmp_path):
        disk = _disk_database(tmp_path)
        queries = [BOOK_QUERY, "QUERY :- V.Label[dvd];", BOOK_QUERY]
        for database in (disk, _memory_database()):
            batch = database.query_many(queries, engine="memory")
            runs = [result.statistics for result in batch]
            expected = EvaluationStatistics.merged(runs)
            assert batch.statistics.bu_states == expected.bu_states > 0
            assert batch.statistics.memory_estimate_kb == expected.memory_estimate_kb > 0
            assert batch.statistics.bu_transitions == expected.bu_transitions
            assert batch.statistics.selected == expected.selected == 5
            assert batch.statistics.nodes == database.n_nodes

    def test_memory_path_reports_zeroed_io(self):
        database = _memory_database()
        result = database.query(BOOK_QUERY)
        assert isinstance(result.io, IOStatistics)
        assert result.io.bytes_read == 0 and result.io.pages_read == 0

    def test_plan_object_api(self, tmp_path):
        disk = _disk_database(tmp_path)
        plan, hit = disk.plan("//book", language="xpath")
        assert hit is False and isinstance(plan, QueryPlan)
        assert plan.program.query_predicates == ("QUERY",) and plan.executions == 0
        for engine in ("disk", "memory"):
            disk.query("//book", language="xpath", engine=engine)
        assert plan.executions == 2  # one plan, whichever evaluator runs it


class TestBatchEvaluation:
    QUERIES = [
        "QUERY :- V.Label[book];",
        "QUERY :- V.Label[dvd];",
        "QUERY :- V.Label[title];",
        "Q :- V.Root; QUERY :- Q.FirstChild;",
    ]

    def test_batch_matches_per_query_results(self, tmp_path):
        database = _disk_database(tmp_path)
        batch = database.query_many(self.QUERIES)
        assert len(batch) == len(self.QUERIES)
        for query, result in zip(self.QUERIES, batch):
            single = database.query(query, engine="disk")
            assert result.selected_nodes() == single.selected_nodes()
            assert result.counts == single.counts
            assert result.backend == "disk"

    def test_arb_pages_read_is_independent_of_batch_size(self, tmp_path):
        # A document large enough to span several pages of the state file.
        document = "<lib>" + "<book><title>ab</title></book><dvd/>" * 500 + "</lib>"
        database = _disk_database(tmp_path, document)
        pages = set()
        scans = set()
        for k in (1, 4, 16):
            database.plan_cache = PlanCache()
            queries = [self.QUERIES[i % len(self.QUERIES)] for i in range(k)]
            batch = database.query_many(queries)
            pages.add(batch.arb_io.pages_read)
            scans.add(batch.arb_io.seeks)
            # The state file holds one 4-byte composite id per node, whatever k is.
            assert batch.state_file_bytes == 4 * database.n_nodes
        # Exactly one backward + one forward scan, whatever k is.
        assert len(pages) == 1
        assert scans == {2}

    def test_duplicate_queries_in_one_batch(self, tmp_path):
        database = _disk_database(tmp_path)
        batch = database.query_many([BOOK_QUERY, BOOK_QUERY])
        assert batch[0].selected_nodes() == batch[1].selected_nodes()
        # The scans run the shared plan once; each occurrence owns its answers.
        assert batch[0].selected_nodes() is not batch[1].selected_nodes()
        assert batch.state_file_bytes == 4 * database.n_nodes
        # Each occurrence owns its statistics: the first records the compile
        # miss, the second the source-cache hit.
        assert batch[0].statistics is not batch[1].statistics
        assert batch[0].statistics.plan_cache_misses == 1
        assert batch[1].statistics.plan_cache_hits == 1

    def test_batch_without_collecting_nodes(self, tmp_path):
        disk = _disk_database(tmp_path)
        for database in (disk, _memory_database()):
            batch = database.query_many([BOOK_QUERY], collect_selected_nodes=False)
            assert batch[0].selected_nodes() == []
            assert batch[0].counts["QUERY"] == 2

    def test_memory_batch_reports_its_backend(self):
        database = _memory_database()
        batch = database.query_many([BOOK_QUERY], engine="auto")
        assert batch.backend == "memory"

    def test_batch_on_memory_database(self):
        database = _memory_database()
        batch = database.query_many(self.QUERIES)
        for query, result in zip(self.QUERIES, batch):
            assert result.selected_nodes() == database.query(query).selected_nodes()
        assert batch.arb_io.bytes_read == 0

    def test_batch_cache_hits_reported_per_query(self, tmp_path):
        database = _disk_database(tmp_path)
        first = database.query_many([BOOK_QUERY, "QUERY :- V.Label[dvd];"])
        assert [r.statistics.plan_cache_misses for r in first] == [1, 1]
        second = database.query_many([BOOK_QUERY, "QUERY :- V.Label[dvd];"])
        assert [r.statistics.plan_cache_hits for r in second] == [1, 1]
        assert all(r.statistics.bu_transitions == 0 for r in second)

    def test_empty_batch_is_an_error(self, tmp_path):
        database = _disk_database(tmp_path)
        with pytest.raises(EvaluationError):
            database.query_many([])

    def test_batch_forcing_disk_on_memory_database_fails(self):
        database = _memory_database()
        with pytest.raises(EvaluationError):
            database.query_many([BOOK_QUERY], engine="disk")


def _race(threads, seconds: float) -> None:
    """Start ``threads`` with a tiny switch interval and join them by a
    deadline; a thread still running then is stuck (a deadlock)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + seconds
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "threads still running at the deadline"


class TestSharedPlansAcrossThreads:
    """``Database.query`` on several threads sharing one plan cache.

    Every thread has its own ``Database.open`` of its own on-disk treebank
    and steps through the same 150 *cold* XPath queries behind a barrier, so
    all of them execute each freshly compiled plan at once.  Without the
    dispatcher's per-plan locks the threads grow one evaluator's memo tables
    concurrently: a run then dies with "dictionary changed size during
    iteration" (CPython 3.11) or returns wrong answer sets (the two-thread
    form of this scenario on other interpreters).  Six threads over
    documents of staggered sizes make one thread finish while another is
    still filling the tables in nearly every query, which is what makes the
    unlocked code fail within the first few dozen queries rather than once
    in a few hundred.
    """

    SIZES = (300, 500, 800, 1300, 2100, 3400)
    QUERIES = [f"//{a}[{b}]//{c}" for a, b, c in itertools.product(TAGS, repeat=3)][:150]

    def test_concurrent_queries_on_shared_cold_plans_are_correct(self, tmp_path):
        self._run_shared(tmp_path, self.QUERIES, DEFAULT_PAGE_SIZE)

    def test_concurrent_page_skips_on_shared_cold_plans_are_correct(self, tmp_path):
        """With 64-byte pages the ``.idx`` sidecar has many pages and every
        query gets a skip plan: the plans' memos (neutral and silent states)
        and the chain carry are filled on several threads at once."""
        shared = self._run_shared(tmp_path, self.QUERIES, 64)
        plans = [shared.get_cached(query, language="xpath") for query in self.QUERIES]
        assert all(plan.memo["neutral"] is not None for plan in plans)

    def _run_shared(self, tmp_path, queries, page_size: int) -> PlanCache:
        bases = []
        for seed, size in enumerate(self.SIZES):
            bases.append(str(tmp_path / f"treebank{seed}"))
            Database.build(generate_treebank(size, seed=seed), bases[-1], page_size=page_size).close()
        shared = PlanCache()
        barrier = threading.Barrier(len(bases))
        answers = [[] for _ in bases]
        errors = []

        def worker(index: int) -> None:
            database = Database.open(bases[index], page_size=page_size)
            database.plan_cache = shared
            try:
                for query in queries:
                    barrier.wait()
                    result = database.query(query, language="xpath")
                    answers[index].append(result.selected_nodes())
            except threading.BrokenBarrierError:
                pass  # another thread failed first and reported it
            except Exception as exc:
                errors.append(exc)
                barrier.abort()

        _race([threading.Thread(target=worker, args=(i,), daemon=True) for i in range(len(bases))], 90)
        assert errors == []
        for base, answered in zip(bases, answers):
            reference = Database.open(base, page_size=page_size)
            reference.plan_cache = PlanCache()
            expected = [
                reference.query(query, language="xpath", engine="memory").selected_nodes()
                for query in queries
            ]
            assert answered == expected
        return shared


class TestPlansLockedOrder:
    """``plans_locked`` takes a batch's plan locks in one global order."""

    def test_opposite_plan_orders_do_not_deadlock(self, tmp_path):
        base = str(tmp_path / "db")
        Database.build(DOCUMENT, base).close()
        shared = PlanCache()
        plans = [shared.lookup(query)[0] for query in (BOOK_QUERY, "QUERY :- V.Label[dvd];")]
        errors = []

        def worker(order) -> None:
            database = Database.open(base)
            try:
                for _ in range(300):
                    database.execute_plans(order, ExecutionOptions())
            except Exception as exc:
                errors.append(exc)

        _race([threading.Thread(target=worker, args=(order,), daemon=True) for order in (plans, plans[::-1])], 30)
        assert errors == []


class TestDirectDiskAccess:
    def test_label_does_not_materialise_the_tree(self, tmp_path):
        database = _disk_database(tmp_path)
        result = database.query(BOOK_QUERY)
        labels = [database.label(node) for node in result.selected_nodes()]
        assert labels == ["book", "book"]
        # The point of the direct record read: no in-memory tree was built.
        assert database._binary is None

    def test_read_record_bounds_and_stats(self, tmp_path):
        from repro.errors import StorageError

        database = _disk_database(tmp_path)
        stats = IOStatistics()
        record = database.disk.read_record(0, stats=stats)
        assert database.disk.label_name(record) == "library"
        assert stats.seeks == 1 and stats.bytes_read == database.disk.record_size
        with pytest.raises(StorageError):
            database.disk.read_record(database.n_nodes)
        with pytest.raises(StorageError):
            database.disk.read_record(-1)

    def test_close_releases_point_handle_and_is_reusable(self, tmp_path):
        with Database.build(DOCUMENT, str(tmp_path / "db")) as database:
            assert database.label(0) == "library"
            assert database.disk._point_handle is not None
        assert database.disk._point_handle is None
        # Still usable after closing: the handle reopens lazily.
        assert database.label(0) == "library"
        database.close()
        Database.from_xml("<a/>").close()  # no-op in memory


class TestCLIPlanFlags:
    def _build(self, tmp_path) -> str:
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(DOCUMENT)
        base = str(tmp_path / "doc")
        assert cli_main(["build", str(xml_path), base]) == 0
        return base

    def test_engine_flag(self, tmp_path, capsys):
        base = self._build(tmp_path)
        capsys.readouterr()
        assert cli_main(["query", base, "-x", "//book", "--engine", "memory"]) == 0
        out = capsys.readouterr().out
        assert "engine          : memory" in out
        assert "selected nodes  : 2" in out

    @pytest.mark.parametrize("engine", ["streaming", "fixpoint"])
    def test_removed_engine_flag_is_a_usage_error(self, tmp_path, capsys, engine):
        base = self._build(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["query", base, "-x", "//book", "--engine", engine])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_repeated_queries_share_one_scan_pair(self, tmp_path, capsys):
        base = self._build(tmp_path)
        capsys.readouterr()
        assert cli_main([
            "query", base, "--ids",
            "-q", "QUERY :- V.Label[book];",
            "-q", "QUERY :- V.Label[dvd];",
        ]) == 0
        out = capsys.readouterr().out
        assert "query [0]       : QUERY" in out and "query [1]       : QUERY" in out
        assert "selected nodes  : 2" in out and "selected nodes  : 1" in out
        assert out.count("engine          : disk") == 2
        assert "in 2 linear scans (independent of the number of queries)" in out

    def test_batch_flag_is_a_usage_error(self, tmp_path, capsys):
        base = self._build(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["query", base, "--batch", "-q", "A :- V.Root;", "-q", "B :- V.Root;"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err
        # The same two queries need no flag to run together.
        assert cli_main(["query", base, "-q", "A :- V.Root;", "-q", "B :- V.Root;"]) == 0
        assert capsys.readouterr().out.count("selected nodes  : 1") == 2

    def test_markup_needs_exactly_one_query(self, tmp_path, capsys):
        base = self._build(tmp_path)
        capsys.readouterr()
        assert cli_main(["query", base, "--mark-up", "-q", BOOK_QUERY, "-q", BOOK_QUERY]) == 1
        assert "--mark-up needs exactly one query" in capsys.readouterr().err
        assert cli_main(["query", base, "--mark-up", "-q", BOOK_QUERY]) == 0
        assert capsys.readouterr().out.count('arb:selected="true"') == 2
