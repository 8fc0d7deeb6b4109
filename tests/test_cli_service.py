"""End-to-end smoke tests of ``arb serve`` and ``arb client``.

``arb serve`` runs as a real subprocess (ephemeral port, discovered through
``--ready-file``); ``arb client`` runs in-process so its output and exit
codes can be asserted.  The burst the client sends must coalesce on the
server into one scan pair.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.collection import Collection
from repro.engine import Database
from repro.plan.cache import PlanCache
from repro.service.server import open_target
from repro.storage.build import build_database

REPO_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
DOCUMENT = "<lib><book><t>x</t></book><book><t>y</t></book><dvd/></lib>"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live ``arb serve`` subprocess over a freshly built document."""
    directory = tmp_path_factory.mktemp("serve")
    base = str(directory / "doc")
    build_database(DOCUMENT, base)
    ready = directory / "ready.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", base,
            "--port", "0", "--ready-file", str(ready), "--window", "0.05",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not ready.exists() or not ready.read_text().strip():
            if process.poll() is not None:
                raise RuntimeError(
                    f"arb serve exited early:\n{process.stdout.read()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("arb serve did not become ready in 30s")
            time.sleep(0.05)
        host, port = ready.read_text().split()
        yield host, int(port)
    finally:
        process.terminate()
        process.wait(timeout=10)


@pytest.mark.timeout(60)
def test_client_burst_coalesces_on_server(served, capsys):
    host, port = served
    exit_code = main([
        "client", "--host", host, "--port", str(port),
        "-q", "QUERY :- V.Label[book];", "--repeat", "3", "--stats",
    ])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert output.count("2 selected") == 3
    assert "batch of 3 (coalesced)" in output
    # The whole burst cost one scan pair of the document's .arb file.
    assert "2 arb pages for the batch" in output
    assert "service counters:" in output


@pytest.mark.timeout(60)
def test_client_mixed_languages_and_ids(served, capsys):
    host, port = served
    exit_code = main([
        "client", "--host", host, "--port", str(port),
        "-x", "//t", "--ids",
    ])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "2 selected" in output


@pytest.mark.timeout(60)
def test_client_surfaces_query_errors_with_exit_code(served, capsys):
    host, port = served
    exit_code = main([
        "client", "--host", host, "--port", str(port),
        "-q", "THIS IS NOT A PROGRAM",
    ])
    output = capsys.readouterr().out
    assert exit_code == 1
    assert "error" in output


@pytest.mark.timeout(60)
def test_inprocess_server_protocol(tmp_path):
    """The JSON-lines protocol, exercised against an in-process ArbServer."""
    import asyncio

    from repro.service import ArbServer, request_many

    base = str(tmp_path / "doc")
    build_database(DOCUMENT, base)
    database = Database.open(base)
    database.plan_cache = PlanCache()

    async def main():
        async with ArbServer(database, window=0.05) as server:
            answers = await request_many(server.host, server.port, [
                {"query": "QUERY :- V.Label[book];"},
                {"query": "//t", "language": "xpath", "ids": True},
                {"query": "NOT A PROGRAM"},
                {"op": "ping"},
                {"op": "no-such-op"},
                {"not-even": "a query"},
            ])
            stats = await request_many(
                server.host, server.port, [{"op": "stats"}]
            )
            return answers, stats[0]

    answers, stats = asyncio.run(main())
    books, xpath, bad, ping, bad_op, not_query = answers
    assert books["ok"] and books["count"] == 2
    # The two good queries coalesced into one scan pair on the server.
    assert books["batch_size"] == 2 and books["coalesced"]
    assert books["arb_pages_read"] == 2
    assert xpath["ok"] and xpath["count"] == 2
    assert xpath["selected"] == {"": xpath["selected"][""]}
    assert len(xpath["selected"][""]) == 2
    assert not bad["ok"] and bad["error_type"] == "TMNFSyntaxError"
    assert ping["ok"] and ping["pong"]
    assert not bad_op["ok"]
    assert not not_query["ok"]
    assert stats["ok"] and stats["stats"]["completed"] == 2
    assert stats["stats"]["batches"] == 1


@pytest.mark.timeout(60)
def test_inprocess_server_collection_target(tmp_path):
    import asyncio

    from repro.service import ArbServer, request_many

    root = str(tmp_path / "served-corpus")
    collection = Collection.create(root, plan_cache=PlanCache())
    for index in range(2):
        collection.add_document(DOCUMENT, doc_id=f"doc-{index}")

    async def main():
        async with ArbServer(collection, window=0.02) as server:
            return await request_many(server.host, server.port, [
                {"query": "QUERY :- V.Label[book];", "ids": True},
            ])

    (answer,) = asyncio.run(main())
    assert answer["ok"] and answer["count"] == 4
    assert set(answer["selected"]) == {"doc-0", "doc-1"}


def test_open_target_dispatch(tmp_path):
    xml_path = tmp_path / "doc.xml"
    xml_path.write_text(DOCUMENT, encoding="utf-8")
    assert isinstance(open_target(str(xml_path)), Database)

    base = str(tmp_path / "doc")
    build_database(DOCUMENT, base)
    target = open_target(base)
    assert isinstance(target, Database) and target.is_on_disk

    root = str(tmp_path / "corpus")
    collection = Collection.create(root, plan_cache=PlanCache())
    collection.add_document(DOCUMENT, doc_id="one")
    assert isinstance(open_target(root), Collection)


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "target", "--port", "99999"],
        ["serve", "target", "--port", "-5"],
        ["router", "--primary", "127.0.0.1:8723", "--replica", "127.0.0.1:8724", "--port", "70000"],
        ["router", "--primary", "127.0.0.1:99999", "--replica", "127.0.0.1:8724"],
        ["client", "--port", "99999", "-q", "QUERY :- V.Root;"],
    ],
    ids=" ".join,
)
def test_a_port_no_socket_accepts_is_one_argparse_line(argv, capsys):
    """``bind()`` and ``connect()`` raise OverflowError for these; the parser
    refuses them first, before anything is opened (``target`` does not even
    exist)."""
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.startswith(f"arb {argv[0]}: error: argument --")
    assert "expected a TCP port in" in error and "65535" in error


def test_listeners_still_take_port_zero_and_clients_do_not(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["serve", "target", "--port", "0"]).port == 0
    assert parser.parse_args(["router", "--primary", "h:1", "--replica", "h:65535", "--port", "0"]).replicas == [
        ("h", 65535)
    ]
    with pytest.raises(SystemExit):
        parser.parse_args(["client", "--port", "0", "-q", "QUERY :- V.Root;"])
    with pytest.raises(SystemExit):
        parser.parse_args(["router", "--primary", "8723", "--replica", "h:1"])
    assert "expected HOST:PORT" in capsys.readouterr().err
