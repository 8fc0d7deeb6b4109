"""The ``arb collection`` command-line subcommands, end to end."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main as cli_main

DOCUMENT = "<library><book><title>ab</title></book><dvd/><book/></library>"
BOOK_QUERY = "QUERY :- V.Label[book];"
DVD_QUERY = "QUERY :- V.Label[dvd];"


@pytest.fixture()
def corpus_root(tmp_path):
    """A collection with three XML documents built through the CLI."""
    xml_paths = []
    for index in range(3):
        path = tmp_path / f"doc{index}.xml"
        path.write_text(DOCUMENT)
        xml_paths.append(str(path))
    root = str(tmp_path / "corpus")
    assert cli_main(["collection", "build", root, *xml_paths]) == 0
    return root


def test_collection_build_reports_documents(tmp_path, capsys):
    xml_path = tmp_path / "one.xml"
    xml_path.write_text(DOCUMENT)
    root = str(tmp_path / "corpus")
    assert cli_main(["collection", "build", root, str(xml_path)]) == 0
    out = capsys.readouterr().out
    assert "added one:" in out
    assert "1 documents" in out
    # Building again extends the same collection, refusing duplicate ids.
    assert cli_main(["collection", "build", root, str(xml_path)]) == 1
    assert "duplicate document id" in capsys.readouterr().err


def test_collection_query_single(corpus_root, capsys):
    capsys.readouterr()
    assert cli_main([
        "collection", "query", corpus_root, "-q", BOOK_QUERY,
        "--workers", "2", "--ids",
    ]) == 0
    out = capsys.readouterr().out
    assert "collection      : 3 documents" in out
    assert "shards          : 2" in out
    assert "[0] QUERY: 6 selected across the corpus" in out
    assert "doc0[0]:" in out
    assert "linear scans" in out


def test_collection_query_batch(corpus_root, capsys):
    capsys.readouterr()
    assert cli_main([
        "collection", "query", corpus_root, "--batch",
        "-q", BOOK_QUERY, "-q", DVD_QUERY,
        "--workers", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "[0] QUERY: 6 selected" in out
    assert "[1] QUERY: 3 selected" in out
    assert "plan cache      :" in out


def test_collection_query_xpath_streaming(corpus_root, capsys):
    """The one-pass baseline is no engine: the flag refuses it."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli_main([
            "collection", "query", corpus_root, "-x", "//book",
            "--engine", "streaming",
        ])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert cli_main([
        "collection", "query", corpus_root, "-x", "//book", "--engine", "memory",
    ]) == 0
    assert "6 selected across the corpus" in capsys.readouterr().out


def test_collection_query_multiple_without_batch_fails(corpus_root, capsys):
    capsys.readouterr()
    assert cli_main([
        "collection", "query", corpus_root, "-q", BOOK_QUERY, "-q", DVD_QUERY,
    ]) == 1
    assert "use --batch" in capsys.readouterr().err


def test_collection_stats(corpus_root, capsys):
    capsys.readouterr()
    assert cli_main(["collection", "stats", corpus_root]) == 0
    out = capsys.readouterr().out
    assert "documents    : 3" in out
    assert "doc1" in out


def test_collection_query_missing_collection(tmp_path, capsys):
    assert cli_main([
        "collection", "query", str(tmp_path / "nope"), "-q", BOOK_QUERY,
    ]) == 1
    assert "not a collection" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--kernel", "auto"], ["--no-index"], ["--pager", "buffered"]], ids=" ".join)
@pytest.mark.parametrize(
    "subcommand", [["query"], ["collection", "query"], ["serve"]], ids=["query", "collection-query", "serve"]
)
def test_deleted_selector_flags_are_argparse_errors(subcommand, flag, capsys):
    """Which loop scans and whether the sidecar is used are the code's
    choices: the flags that once set them are gone from every subcommand
    that had them, not ignored."""
    parser = build_parser()
    for name in subcommand:
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    assert not {"kernel", "no_index", "pager"} & {action.dest for action in parser._actions}
    with pytest.raises(SystemExit) as refused:
        cli_main([*subcommand, "target", *([] if subcommand == ["serve"] else ["-q", BOOK_QUERY]), *flag])
    assert refused.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
