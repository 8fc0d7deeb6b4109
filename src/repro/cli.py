"""The ``arb`` command-line tool.

Subcommands
-----------
``arb build INPUT.xml OUTPUT``
    Create ``OUTPUT.arb`` / ``OUTPUT.lab`` from an XML document with the
    two-pass procedure of Section 5 and print the Figure-5 statistics row.

``arb query DATABASE (-q PROGRAM | -f FILE | -x XPATH)``
    Evaluate a node-selecting query.  ``DATABASE`` is either an `.arb` base
    path (evaluated in two linear scans on disk) or an XML file (evaluated in
    memory).  By default the selected-node count and the evaluation
    statistics are printed; ``--mark-up`` emits the whole document with the
    selected nodes marked, ``--ids`` prints the selected node ids.

    ``--engine {auto,memory,disk}``: ``auto`` (the default) evaluates an
    `.arb` database in two linear scans and an XML file in memory; ``disk``
    insists on the scans, ``memory`` loads the tree (the differential oracle).
    ``-q`` / ``-f`` / ``-x`` may be repeated together with ``--batch``: the
    batch is evaluated over an on-disk database with a **single** pair of
    linear scans of the `.arb` file, however many queries it holds.

``arb stats DATABASE``
    Print the stored metadata of an `.arb` database, including its current
    generation and the generations still on disk.

``arb update DATABASE (--relabel NODE LABEL | --delete NODE | --insert PARENT XML | --group FILE)``
    Apply one copy-on-write update: a new `.arb` generation is spliced from
    the current one beside it and the generation pointer is swapped
    atomically, so concurrent readers keep their snapshot.  ``--at`` picks
    the child position for ``--insert`` (default: append); ``--retain N``
    prunes all but the newest N generations afterwards.  ``--group FILE``
    reads one JSON update spec per line and commits them all as **one**
    group (one WAL append, one new generation, one fsync pair), atomically.

``arb collection build ROOT XML [XML ...]``
    Create (or extend) a document collection at ``ROOT``: one `.arb`
    database per XML file under ``ROOT/docs/``, registered in the manifest.

``arb collection query ROOT (-q PROGRAM | -f FILE | -x XPATH)``
    Evaluate queries over **every** document of the collection, sharded
    across ``--workers`` worker processes (one worker evaluates in the
    calling process).  With ``--batch``, all given queries ride one
    lockstep scan pair per document.

``arb collection stats ROOT``
    Print the manifest of a collection and the shared plan-cache counters.

``arb serve TARGET``
    Run the async query service over ``TARGET`` (an `.arb` base path, an XML
    file, or a collection root) on a TCP port, speaking one JSON object per
    line.  Concurrent requests arriving within ``--window`` seconds coalesce
    into one scan pair per document, whatever their number; ``--max-pending``
    bounds the queue (admission control with backpressure).  With
    ``--write-window`` the same happens to updates: concurrent update
    requests commit as one group with a single WAL append and fsync pair.

``arb router --primary HOST:PORT --replica HOST:PORT [--replica ...]``
    Run the replication front door: reads fan out across the replica
    servers (burst-pinned round-robin, transparent failover), updates
    forward to the primary, which ships each committed generation back to
    the replicas (``arb serve --replicate {async,sync}`` picks whether
    shipping happens after or before the update ack).  Clients speak the
    ordinary ``arb serve`` protocol to the router, unchanged.

``arb client (-q PROGRAM | -x XPATH) [--repeat N]``
    Send queries to a running ``arb serve`` in one concurrent burst (so they
    can share a window) and print the per-request coalescing statistics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from repro.collection import Collection
from repro.engine import Database
from repro.errors import ReproError
from repro.plan.options import AUTO_ENGINE, ENGINES
from repro.storage.build import build_database
from repro.storage.bufferpool import resolve_pager
from repro.storage.database import ArbDatabase
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_many,
    op_from_spec,
)

__all__ = ["main", "build_parser"]


def _tcp_port(lowest: int):
    """An argparse ``type=`` for a TCP port in ``lowest``-65535 (0, where
    allowed, lets a listener pick an ephemeral port)."""

    def parse(text: str) -> int:
        if not (text.isdigit() and lowest <= int(text) <= 65535):
            raise argparse.ArgumentTypeError(f"expected a TCP port in {lowest}-65535, got {text!r}")
        return int(text)

    return parse


def _endpoint(text: str) -> tuple[str, int]:
    """The argparse ``type=`` of ``HOST:PORT`` (a server to connect to)."""
    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, _tcp_port(1)(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arb",
        description="Tree-automata evaluation of expressive node-selecting queries on XML.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="create an .arb database from an XML file")
    build.add_argument("xml", help="input XML document")
    build.add_argument("output", help="output base path (creates <output>.arb/.lab/.meta)")
    build.add_argument("--text-mode", choices=("chars", "node", "ignore"), default="chars",
                       help="how to model text (default: one node per character)")

    query = subparsers.add_parser("query", help="evaluate node-selecting queries")
    query.add_argument("database", help=".arb base path or XML file")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("-q", "--program", action="append",
                       help="TMNF/caterpillar program text (repeatable with --batch)")
    group.add_argument("-f", "--program-file", action="append",
                       help="file containing a TMNF program (repeatable with --batch)")
    group.add_argument("-x", "--xpath", action="append",
                       help="XPath expression, supported fragment (repeatable with --batch)")
    query.add_argument("--query-predicate", help="IDB predicate to report (default: QUERY/first head)")
    query.add_argument("--engine", choices=ENGINES, default=AUTO_ENGINE,
                       help="evaluator (default: disk scans on disk, else memory)")
    query.add_argument("--batch", action="store_true",
                       help="evaluate all given queries together "
                            "(on disk: one pair of linear scans for the whole batch)")
    query.add_argument("--ids", action="store_true", help="print selected node ids")
    query.add_argument("--mark-up", action="store_true",
                       help="print the document with selected nodes marked up")

    stats = subparsers.add_parser("stats", help="print metadata of an .arb database")
    stats.add_argument("database", help=".arb base path")

    update = subparsers.add_parser(
        "update", help="apply a copy-on-write update (new generation + atomic swap)"
    )
    update.add_argument("database", help=".arb base path")
    ugroup = update.add_mutually_exclusive_group(required=True)
    ugroup.add_argument("--relabel", nargs=2, metavar=("NODE", "LABEL"),
                        help="give node NODE the label LABEL")
    ugroup.add_argument("--delete", type=int, metavar="NODE",
                        help="delete node NODE and its whole subtree")
    ugroup.add_argument("--group", metavar="FILE",
                        help="apply every JSON update spec in FILE (one per "
                             "line, '-' for stdin) as a single group commit")
    ugroup.add_argument("--insert", nargs=2, metavar=("PARENT", "XML"),
                        help="insert an XML fragment (inline or a file path) "
                             "as a child of node PARENT")
    update.add_argument("--at", type=int, default=None, metavar="POSITION",
                        help="child position for --insert (default: append last)")
    update.add_argument("--text", action="store_true",
                        help="treat the --relabel label as character data")
    update.add_argument("--text-mode", choices=("chars", "node", "ignore"),
                        default="chars",
                        help="how to model text inside --insert fragments")
    update.add_argument("--retain", type=int, default=None, metavar="N",
                        help="prune history to the newest N generations after the swap")

    collection = subparsers.add_parser(
        "collection", help="manage and query a sharded document collection"
    )
    collection_sub = collection.add_subparsers(dest="collection_command", required=True)

    cbuild = collection_sub.add_parser(
        "build", help="add XML documents to a collection (created if missing)"
    )
    cbuild.add_argument("root", help="collection root directory")
    cbuild.add_argument("xml", nargs="+", help="input XML documents")
    cbuild.add_argument("--text-mode", choices=("chars", "node", "ignore"), default="chars",
                        help="how to model text (default: one node per character)")

    cquery = collection_sub.add_parser(
        "query", help="evaluate queries over every document of a collection"
    )
    cquery.add_argument("root", help="collection root directory")
    cgroup = cquery.add_mutually_exclusive_group(required=True)
    cgroup.add_argument("-q", "--program", action="append",
                        help="TMNF/caterpillar program text (repeatable with --batch)")
    cgroup.add_argument("-f", "--program-file", action="append",
                        help="file containing a TMNF program (repeatable with --batch)")
    cgroup.add_argument("-x", "--xpath", action="append",
                        help="XPath expression, supported fragment (repeatable with --batch)")
    cquery.add_argument("--query-predicate",
                        help="IDB predicate to report (default: QUERY/first head)")
    cquery.add_argument("--engine", choices=ENGINES, default=AUTO_ENGINE,
                        help="evaluator (default: the disk scan pair)")
    cquery.add_argument("--batch", action="store_true",
                        help="evaluate all given queries together "
                             "(one lockstep scan pair per document)")
    cquery.add_argument("--workers", type=int, default=1, metavar="N",
                        help="number of worker processes (default: 1, in-process)")
    cquery.add_argument("--ids", action="store_true",
                        help="print selected node ids per document")

    cstats = collection_sub.add_parser("stats", help="print a collection's manifest")
    cstats.add_argument("root", help="collection root directory")

    serve = subparsers.add_parser(
        "serve", help="serve queries over TCP with request coalescing"
    )
    serve.add_argument("target", help=".arb base path, XML file, or collection root")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=_tcp_port(0), default=8723,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--window", type=float, default=0.005, metavar="SECONDS",
                       help="coalescing window: requests arriving within it share "
                            "one scan pair (default: 0.005)")
    serve.add_argument("--max-batch", type=int, default=64, metavar="K",
                       help="largest number of requests per shared batch")
    serve.add_argument("--write-window", type=float, default=0.0, metavar="SECONDS",
                       help="group-commit window for updates (0 = every update "
                            "commits on its own)")
    serve.add_argument("--max-write-batch", type=int, default=16, metavar="K",
                       help="cap on updates per group commit")
    serve.add_argument("--max-pending", type=int, default=1024, metavar="N",
                       help="queue depth limit; further requests are rejected")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes per batch (collection targets only; "
                            "default: 1, in-process)")
    serve.add_argument("--ready-file", metavar="PATH",
                       help="write 'host port' to PATH once the listener is bound")
    serve.add_argument("--replicate", choices=("async", "sync"), default="async",
                       help="when replicas register with this server, ship "
                            "committed generations after the update ack "
                            "(async, default) or before it (sync)")

    router = subparsers.add_parser(
        "router",
        help="fan a query stream across replica servers (reads scale out, "
             "writes forward to the primary)",
    )
    router.add_argument("--primary", required=True, metavar="HOST:PORT", type=_endpoint,
                        help="the ArbServer that owns updates")
    router.add_argument("--replica", action="append", required=True, type=_endpoint,
                        metavar="HOST:PORT", dest="replicas",
                        help="a read replica ArbServer (repeatable)")
    router.add_argument("--host", default="127.0.0.1", help="bind address")
    router.add_argument("--port", type=_tcp_port(0), default=8722,
                        help="TCP port (0 picks an ephemeral port)")
    router.add_argument("--ping-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="health/fencing probe cadence (default: 0.5)")
    router.add_argument("--no-register", action="store_true",
                        help="do not register the replicas with the primary "
                             "on startup (they must already be registered)")
    router.add_argument("--ready-file", metavar="PATH",
                        help="write 'host port' to PATH once the listener is bound")

    client = subparsers.add_parser(
        "client", help="send queries to a running 'arb serve' in one burst"
    )
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=_tcp_port(1), default=8723, help="server port")
    clgroup = client.add_mutually_exclusive_group(required=True)
    clgroup.add_argument("-q", "--program", action="append",
                         help="TMNF/caterpillar program text (repeatable)")
    clgroup.add_argument("-f", "--program-file", action="append",
                         help="file containing a TMNF program (repeatable)")
    clgroup.add_argument("-x", "--xpath", action="append",
                         help="XPath expression, supported fragment (repeatable)")
    client.add_argument("--query-predicate",
                        help="IDB predicate to report (default: QUERY/first head)")
    client.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="send each query N times in the burst (default: 1)")
    client.add_argument("--ids", action="store_true",
                        help="print selected node ids")
    client.add_argument("--stats", action="store_true",
                        help="also fetch and print the server's service counters")
    return parser


def _open_database(path: str) -> Database:
    if path.endswith(".xml"):
        return Database.from_xml_file(path)
    return Database.open(path, pager=resolve_pager())


def _command_build(args: argparse.Namespace) -> int:
    with open(args.xml, "r", encoding="utf-8") as handle:
        document = handle.read()
    stats = build_database(document, args.output, text_mode=args.text_mode, name=args.xml)
    for key, value in stats.as_row().items():
        print(f"{key:>12}: {value}")
    return 0


def _collect_queries(args: argparse.Namespace) -> tuple[list[str], str]:
    """The query texts and their language from the -q/-f/-x options."""
    if args.xpath:
        return list(args.xpath), "xpath"
    if args.program_file:
        texts = []
        for path in args.program_file:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
        return texts, "tmnf"
    return list(args.program), "tmnf"


def _command_query(args: argparse.Namespace) -> int:
    database = _open_database(args.database)
    queries, language = _collect_queries(args)
    if args.batch:
        return _run_batch_query(database, queries, language, args)
    if len(queries) > 1:
        raise ReproError("multiple queries given; use --batch to evaluate them together")
    result = database.query(
        queries[0], language=language, query_predicate=args.query_predicate,
        engine=args.engine,
    )
    predicate = result.program.query_predicates[0]
    statistics = result.statistics
    print(f"query predicate : {predicate}")
    print(f"selected nodes  : {result.count(predicate)}")
    print(f"engine          : {result.backend}")
    print(f"plan cache      : {'hit' if statistics.plan_cache_hits else 'miss'}")
    print(f"phase 1 (bottom-up): {statistics.bu_seconds:.4f}s, "
          f"{statistics.bu_transitions} transitions")
    print(f"phase 2 (top-down) : {statistics.td_seconds:.4f}s, "
          f"{statistics.td_transitions} transitions")
    print(f"total              : {statistics.total_seconds:.4f}s over {statistics.nodes} nodes")
    if args.ids:
        print(" ".join(str(node) for node in result.selected_nodes(predicate)))
    if args.mark_up:
        print(database.to_xml(result.selected_nodes(predicate)))
    return 0


def _run_batch_query(database: Database, queries: list[str], language: str,
                     args: argparse.Namespace) -> int:
    if args.mark_up:
        raise ReproError("--mark-up is not available with --batch")
    batch = database.query_many(
        queries, language=language, query_predicate=args.query_predicate,
        engine=args.engine,
    )
    print(f"batch           : {len(batch)} queries ({batch.backend})")
    for index, result in enumerate(batch):
        predicate = result.program.query_predicates[0]
        statistics = result.statistics
        cache = "hit" if statistics.plan_cache_hits else "miss"
        print(f"  [{index}] {predicate}: {result.count(predicate)} selected, "
              f"{statistics.bu_transitions}+{statistics.td_transitions} transitions, "
              f"plan {cache}")
        if args.ids:
            print("      " + " ".join(str(node) for node in result.selected_nodes(predicate)))
    if batch.backend == "disk":
        arb = batch.arb_io
        print(f".arb file I/O   : {arb.pages_read} pages / {arb.bytes_read} bytes read "
              f"in {arb.seeks} linear scans (independent of batch size)")
        print(f"state file      : {batch.state_file_bytes} bytes "
              f"({batch.state_io.pages_read} pages read, "
              f"{batch.state_io.pages_written} written)")
    print(f"total           : {batch.statistics.total_seconds:.4f}s "
          f"over {batch.statistics.nodes} nodes")
    return 0


def _command_collection(args: argparse.Namespace) -> int:
    if args.collection_command == "build":
        return _command_collection_build(args)
    if args.collection_command == "query":
        return _command_collection_query(args)
    return _command_collection_stats(args)


def _command_collection_build(args: argparse.Namespace) -> int:
    collection = Collection.open_or_create(args.root)
    try:
        for xml_path in args.xml:
            # One manifest write at the end (in the finally, so documents
            # added before an error are still registered), not one per file.
            entry = collection.add_xml_file(xml_path, text_mode=args.text_mode,
                                            save=False)
            print(f"added {entry.doc_id}: {entry.n_nodes} nodes, "
                  f"{entry.arb_bytes} .arb bytes ({xml_path})")
    finally:
        collection.save_manifest()
    print(f"collection      : {len(collection)} documents, "
          f"{collection.n_nodes} nodes total")
    return 0


def _command_collection_query(args: argparse.Namespace) -> int:
    collection = Collection.open(args.root)
    queries, language = _collect_queries(args)
    if len(queries) > 1 and not args.batch:
        raise ReproError("multiple queries given; use --batch to evaluate them together")
    result = collection.query_many(
        queries, language=language, query_predicate=args.query_predicate,
        engine=args.engine, n_workers=args.workers,
    )
    statistics = result.statistics
    print(f"collection      : {len(result)} documents, {statistics.nodes} nodes")
    print(f"shards          : {result.n_shards}")
    for index, program in enumerate(result.programs):
        predicate = program.query_predicates[0]
        total = result.count(query_index=index)
        print(f"  [{index}] {predicate}: {total} selected across the corpus")
    if args.ids:
        for doc in result:
            for index in range(len(result.programs)):
                nodes = doc.selected_nodes(query_index=index)
                if nodes:
                    print(f"      {doc.doc_id}[{index}]: "
                          + " ".join(str(node) for node in nodes))
    arb = result.arb_io
    print(f".arb file I/O   : {arb.pages_read} pages / {arb.bytes_read} bytes read "
          f"in {arb.seeks} linear scans (constant per document, any batch size)")
    print(f"plan cache      : {statistics.plan_cache_hits} hits / "
          f"{statistics.plan_cache_misses} misses across shards")
    print(f"wall time       : {result.wall_seconds:.4f}s "
          f"(evaluation time {statistics.total_seconds:.4f}s)")
    return 0


def _command_collection_stats(args: argparse.Namespace) -> int:
    collection = Collection.open(args.root)
    print(f"root         : {collection.root}")
    print(f"name         : {collection.manifest.name}")
    print(f"documents    : {len(collection)}")
    print(f"total nodes  : {collection.n_nodes}")
    print(f"total bytes  : {collection.manifest.total_arb_bytes}")
    for entry in collection:
        print(f"  {entry.doc_id:>20}: {entry.n_nodes} nodes, "
              f"{entry.n_tags} tags, {entry.arb_bytes} .arb bytes")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import serve as serve_async

    try:
        asyncio.run(
            serve_async(
                args.target,
                host=args.host,
                port=args.port,
                ready_file=args.ready_file,
                window=args.window,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                write_window=args.write_window,
                max_write_batch=args.max_write_batch,
                n_workers=args.workers,
                replication_mode=args.replicate,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def _command_router(args: argparse.Namespace) -> int:
    from repro.replication import route

    try:
        asyncio.run(
            route(
                args.primary,
                args.replicas,
                host=args.host,
                port=args.port,
                ready_file=args.ready_file,
                ping_interval=args.ping_interval,
                register_replicas=not args.no_register,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def _command_client(args: argparse.Namespace) -> int:
    from repro.service import request_many

    queries, language = _collect_queries(args)
    messages = [
        {
            "query": query,
            "language": language,
            "query_predicate": args.query_predicate,
            "ids": bool(args.ids),
        }
        for query in queries
        for _ in range(max(1, args.repeat))
    ]
    answers = asyncio.run(request_many(args.host, args.port, messages))
    if args.stats:
        # A second round-trip, so the counters include the burst just sent.
        answers.extend(asyncio.run(request_many(args.host, args.port, [{"op": "stats"}])))
    failures = 0
    for answer in answers:
        if "stats" in answer:
            print("service counters:")
            for key, value in answer["stats"].items():
                print(f"  {key:>20}: {value}")
            continue
        if not answer.get("ok"):
            failures += 1
            print(f"[{answer.get('id')}] error: {answer.get('error')}")
            continue
        cache = "hit" if answer.get("plan_cache_hit") else "miss"
        print(f"[{answer.get('id')}] {answer.get('count')} selected, "
              f"batch of {answer.get('batch_size')} "
              f"({'coalesced' if answer.get('coalesced') else 'alone'}), "
              f"plan {cache}, {answer.get('arb_pages_read')} arb pages for the batch")
        if args.ids and answer.get("selected") is not None:
            for doc_id, nodes in answer["selected"].items():
                prefix = f"{doc_id}: " if doc_id else ""
                print("      " + prefix + " ".join(str(node) for node in nodes))
    return 1 if failures else 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.storage.generations import (
        GENERATION_FILE_SUFFIXES,
        generation_base,
        list_generations,
        read_pointer,
    )
    from repro.storage.pageindex import index_for

    database = ArbDatabase.open(args.database)
    pointer = read_pointer(database.logical_base_path)
    on_disk = list_generations(database.logical_base_path)
    print(f"base path    : {database.logical_base_path}")
    print(f"generation   : {database.generation} "
          f"(change counter {pointer.counter}, on disk: "
          + " ".join(str(gen) for gen in on_disk) + ")")
    print(f"nodes        : {database.n_nodes}")
    print(f"record size  : {database.record_size} bytes")
    print(f"element nodes: {database.element_nodes}")
    print(f"char nodes   : {database.char_nodes}")
    print(f"tags         : {database.labels.n_tags}")
    print(f".arb size    : {database.file_size()} bytes")
    index = index_for(database)
    if index is None:
        print("page index   : none (full scans)")
    else:
        print(f"page index   : {index.n_pages} pages summarised, "
              f"{index.file_size()} bytes ({index.page_size}-byte pages)")
    print("generations  :")
    for gen in on_disk:
        base = generation_base(database.logical_base_path, gen)
        sizes = []
        for suffix in GENERATION_FILE_SUFFIXES:
            try:
                sizes.append(f"{suffix} {os.path.getsize(base + suffix)}")
            except OSError:
                sizes.append(f"{suffix} -")
        marker = "*" if gen == database.generation else " "
        print(f"  {marker}g{gen:<4}: " + ", ".join(sizes))
    return 0


def _parse_node_id(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ReproError(f"{what} must be a node id (an integer), got {text!r}") from None


def _update_ops(args: argparse.Namespace) -> list:
    """The operations one ``arb update`` invocation names, in order."""
    if args.group is not None:
        if args.group == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.group, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        ops = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                ops.append(op_from_spec(json.loads(line)))
            except json.JSONDecodeError as error:
                raise ReproError(f"--group line {number} is not JSON: {error.msg}") from None
        if not ops:
            raise ReproError(f"--group file holds no update specs: {args.group}")
        return ops
    if args.relabel is not None:
        node_text, label = args.relabel
        return [Relabel(_parse_node_id(node_text, "--relabel NODE"), label,
                        is_text=args.text)]
    if args.delete is not None:
        return [DeleteSubtree(args.delete)]
    parent_text, xml = args.insert
    if os.path.exists(xml):
        with open(xml, "r", encoding="utf-8") as handle:
            xml = handle.read()
    return [InsertSubtree(_parse_node_id(parent_text, "--insert PARENT"), xml,
                          position=args.at, text_mode=args.text_mode)]


def _command_update(args: argparse.Namespace) -> int:
    result = apply_many(args.database, _update_ops(args), retain_generations=args.retain)
    stats = result.statistics
    grouped = args.group is not None
    if grouped:
        print(f"group commit    : {result.n_ops} operations in one generation")
    print(f"generation      : {result.old_generation} -> {result.new_generation} "
          f"(change counter {result.counter})")
    print(f"nodes           : {result.n_nodes} "
          f"({result.element_nodes} element, {result.char_nodes} char)")
    if not grouped:
        print(f"splice          : {stats.records_reencoded} records re-encoded, "
              f"{stats.bytes_copied} bytes copied unchanged "
              f"({stats.pages_spliced} chunks)")
        print(f"analysis        : {'cached' if stats.analysis_cache_hit else 'one forward scan'}")
    print(f"wall time       : {stats.seconds:.4f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _command_build(args)
        if args.command == "query":
            return _command_query(args)
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "update":
            return _command_update(args)
        if args.command == "collection":
            return _command_collection(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "router":
            return _command_router(args)
        if args.command == "client":
            return _command_client(args)
    except (ReproError, OSError) as error:  # OSError: a named file cannot be read
        print(f"error: {error}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
