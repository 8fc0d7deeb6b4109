"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import glob
import os
import random
import signal

import pytest

from repro.tmnf.program import TMNFProgram
from repro.tree import BinaryTree, UnrankedNode, UnrankedTree, parse_xml

# --------------------------------------------------------------------------- #
# Test timeouts: no test may hang the pipeline
# --------------------------------------------------------------------------- #

#: Default per-test timeout (seconds).  The soak/concurrency suites of the
#: query service must be able to *fail* on a deadlock, never hang CI.
DEFAULT_TEST_TIMEOUT = 120


def _has_timeout_plugin(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


def pytest_configure(config):
    # pytest-timeout registers this marker itself when installed; register it
    # here too so `@pytest.mark.timeout(...)` never warns without the plugin.
    config.addinivalue_line("markers", "timeout(seconds): fail the test if it runs longer than this")


def pytest_collection_modifyitems(config, items):
    if not _has_timeout_plugin(config):
        return
    # With pytest-timeout installed (CI always has it), give every test the
    # sane default; individual tests can still override with their marker.
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(DEFAULT_TEST_TIMEOUT))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback so tests cannot hang when pytest-timeout is absent.

    The container image may lack the plugin; CPython delivers signals to the
    main thread even while it blocks on locks or an asyncio selector, so an
    alarm turns a would-be deadlock into an ordinary test failure.
    """
    if _has_timeout_plugin(item.config) or not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else DEFAULT_TEST_TIMEOUT

    def _on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded the {seconds:.0f}s fallback timeout (possible deadlock)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --------------------------------------------------------------------------- #
# The situation the full-scan leg of a differential puts the code in
# --------------------------------------------------------------------------- #
#
# Nothing in ``src/`` takes a "use the index" argument: the code picks from
# what it observes.  A test that wants the full-scan side of the indexed ==
# full scan differential produces the situation that selects it, for the
# duration of a ``with`` block.


@contextlib.contextmanager
def sidecars_hidden(directory):
    """The missing-``.idx`` degrade: every page-summary sidecar under
    ``directory`` (recursively) is renamed away, so scans of those databases
    skip nothing, and renamed back -- same bytes, same mtime -- on exit."""
    hidden = []
    try:
        for path in glob.glob(os.path.join(str(directory), "**", "*.idx"), recursive=True):
            os.rename(path, path + ".hidden")
            hidden.append(path)
        yield
    finally:
        for path in hidden:
            os.rename(path + ".hidden", path)


# --------------------------------------------------------------------------- #
# Example programs from the paper
# --------------------------------------------------------------------------- #

RUNNING_EXAMPLE = """
P1 :- Root;
P2 :- P1.FirstChild;
P3 :- P2.FirstChild;
P4 :- P3, Leaf;
P5 :- P4.invFirstChild;
Q :- P5.invFirstChild;
"""

EVEN_ODD_EXAMPLE = """
Even :- Leaf, -Label[a];
Odd :- Leaf, Label[a];
SFREven :- Even, LastSibling;
SFROdd :- Odd, LastSibling;
FSEven :- SFREven.invNextSibling;
FSOdd :- SFROdd.invNextSibling;
SFREven :- FSEven, Even;
SFROdd :- FSEven, Odd;
SFROdd :- FSOdd, Even;
SFREven :- FSOdd, Odd;
Even :- SFREven.invFirstChild;
Odd :- SFROdd.invFirstChild;
"""


@pytest.fixture
def running_example_program() -> TMNFProgram:
    return TMNFProgram.parse(RUNNING_EXAMPLE, query_predicates="Q")


@pytest.fixture
def even_odd_program() -> TMNFProgram:
    return TMNFProgram.parse(EVEN_ODD_EXAMPLE, query_predicates="Even")


@pytest.fixture
def chain_tree() -> BinaryTree:
    """The three-node <a><a><a/></a></a> tree of Example 4.5."""
    return BinaryTree.from_unranked(parse_xml("<a><a><a/></a></a>"))


# --------------------------------------------------------------------------- #
# Random tree generation (plain `random`, used outside hypothesis tests)
# --------------------------------------------------------------------------- #


def random_unranked_tree(
    rng: random.Random,
    max_nodes: int = 20,
    labels: tuple[str, ...] = ("a", "b", "c"),
    max_children: int = 3,
) -> UnrankedTree:
    """A small random unranked tree with labels drawn from ``labels``."""
    budget = rng.randint(1, max_nodes)
    root = UnrankedNode(rng.choice(labels))
    nodes = [root]
    count = 1
    while count < budget:
        parent = rng.choice(nodes)
        if len(parent.children) >= max_children:
            continue
        child = UnrankedNode(rng.choice(labels))
        parent.children.append(child)
        nodes.append(child)
        count += 1
    return UnrankedTree(root)


def random_binary_tree(rng: random.Random, max_nodes: int = 20) -> BinaryTree:
    return BinaryTree.from_unranked(random_unranked_tree(rng, max_nodes))
