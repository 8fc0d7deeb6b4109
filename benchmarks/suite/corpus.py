"""Seeded corpora, query pools, schedules and their oracles.

Generators *stream* ``(kind, label, is_text)`` events into
:func:`repro.storage.build.build_database` -- they never hold a tree -- and
tally their own oracle counts while generating, so every answer the program
returns is checked against something the program did not compute.  The
program under test only ever sees the generated files and requests, never
the seed.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.collection import Collection
from repro.datasets.random_queries import (
    STEP_SOME_CHILD,
    TREEBANK_ALPHABET,
    random_path_query,
)
from repro.datasets.treebank import generate_treebank
from repro.storage.build import build_database

__all__ = [
    "DblpOracle",
    "FlatDocument",
    "build_dblp",
    "build_treebank_collection",
    "adhoc_queries",
    "update_rounds",
    "wire_bursts",
    "base_bytes",
    "tree_bytes",
    "FULL_BATCH",
    "SELECTIVE_BATCH",
    "PROBE_BATCH",
    "WIRE_READS",
]

_BEGIN, _END = 0, 1

#: Record kinds of the dblp-shaped corpus with their share of the records.
#: Records are clustered in this order over the whole document: the page
#: index can only skip what is physically apart.
RECORD_KINDS = (
    ("book", 0.05),
    ("article", 0.45),
    ("phdthesis", 0.03),
    ("inproceedings", 0.45),
    ("www", 0.02),
)
#: The one field only this kind of record carries.
_EXTRA_FIELD = {"phdthesis": "school", "www": "url"}
RECORDS_PER_VENUE = 500
#: Mean nodes of one record: the record, 1-4 authors, title, year, extras.
_NODES_PER_RECORD = 1 + 2.5 + 2 + 0.03 + 0.02

#: XPath pools: ``(query, key of the expected count in DblpOracle.counts)``.
FULL_BATCH = (
    ("//article[year]/author", "article/author"),
    ("//inproceedings/title", "inproceedings"),
    ("//article/year", "article"),
    ("//inproceedings[author]/year", "inproceedings"),
    ("//venue/article", "article"),
    ("//book/author", "book/author"),
    ("//venue[article]", "venue[article]"),
    ("//inproceedings/author", "inproceedings/author"),
)
SELECTIVE_BATCH = (("//book", "book"), ("//phdthesis/school", "phdthesis"))
#: Probe batch of update-stream; expected counts come from the FlatDocument.
PROBE_BATCH = ("//article/author", "//editor", "//inproceedings/title", "//venue/article")
#: Hot reads of the wire workloads.  ``k`` relabels of an ``article/author``
#: to ``editor`` have committed at a reply's counter; the third query is sent
#: with ``"ids": true`` and names nodes no relabel touches.
WIRE_READS = ("//article/author", "//editor", "//phdthesis/school", "//inproceedings/title")


@dataclass
class DblpOracle:
    """What the generator knows about the document it streamed."""

    n_nodes: int = 0
    #: Answer counts: ``kind``, ``kind/author``, ``venue``, ``venue[article]``.
    counts: dict[str, int] = field(default_factory=dict)
    #: Pre-order ids of every ``author`` under an ``article`` and of every
    #: ``school`` (all under ``phdthesis``); kept only when asked for.
    article_author_ids: list[int] = field(default_factory=list)
    school_ids: list[int] = field(default_factory=list)
    build_seconds: float = 0.0


def dblp_events(
    n_nodes: int, seed: int, oracle: DblpOracle, *, keep_ids: bool = False
) -> Iterator[tuple[int, str, bool]]:
    """Begin/end events of a dblp-shaped document of about ``n_nodes`` nodes.

    root -> ``venue`` sections of 500 records -> records with 1-4 ``author``,
    ``title``, ``year``, and ``school`` only under ``phdthesis``, ``url`` only
    under ``www``.  Fills ``oracle`` as it goes.
    """
    rng = random.Random(f"dblp/{seed}/{n_nodes}")
    n_records = int((n_nodes - 1) / (_NODES_PER_RECORD + 1 / RECORDS_PER_VENUE))
    bounds, share = [], 0.0
    for kind, part in RECORD_KINDS:
        share += part
        bounds.append((kind, round(share * n_records)))
    bounds[-1] = (bounds[-1][0], n_records)
    counts = oracle.counts
    for kind, _ in RECORD_KINDS:
        counts[kind] = counts[kind + "/author"] = 0
    counts["venue"] = counts["venue[article]"] = 0
    leaf = {
        label: ((_BEGIN, label, False), (_END, label, False))
        for label in ("author", "title", "year", "school", "url")
    }
    author_begin, author_end = leaf["author"]
    venue_begin, venue_end = (_BEGIN, "venue", False), (_END, "venue", False)

    yield (_BEGIN, "dblp", False)
    node = 1
    kind_index = 0
    venue_has_article = False
    for record in range(n_records):
        if record % RECORDS_PER_VENUE == 0:
            if record:
                yield venue_end
                counts["venue[article]"] += venue_has_article
            yield venue_begin
            node += 1
            counts["venue"] += 1
            venue_has_article = False
        while record >= bounds[kind_index][1]:
            kind_index += 1
        kind = bounds[kind_index][0]
        yield (_BEGIN, kind, False)
        node += 1
        counts[kind] += 1
        n_authors = rng.randint(1, 4)
        counts[kind + "/author"] += n_authors
        if kind == "article":
            venue_has_article = True
            if keep_ids:
                oracle.article_author_ids.extend(range(node, node + n_authors))
        for _ in range(n_authors):
            yield author_begin
            yield author_end
        node += n_authors
        yield from leaf["title"]
        yield from leaf["year"]
        node += 2
        extra = _EXTRA_FIELD.get(kind)
        if extra is not None:
            if keep_ids and extra == "school":
                oracle.school_ids.append(node)
            yield from leaf[extra]
            node += 1
        yield (_END, kind, False)
    yield venue_end
    counts["venue[article]"] += venue_has_article
    yield (_END, "dblp", False)
    oracle.n_nodes = node


def build_dblp(base_path: str, n_nodes: int, seed: int, *, keep_ids: bool = False) -> DblpOracle:
    """Stream a dblp-shaped document into ``<base_path>.arb``; its oracle."""
    oracle = DblpOracle()
    started = time.perf_counter()
    stats = build_database(dblp_events(n_nodes, seed, oracle, keep_ids=keep_ids), base_path)
    oracle.build_seconds = time.perf_counter() - started
    if stats.total_nodes != oracle.n_nodes:
        raise AssertionError("generator and builder disagree on the node count")
    return oracle


def build_treebank_collection(root: str, n_docs: int, nodes_per_doc: int, seed: int):
    """A collection of ``n_docs`` treebank documents; ``(collection, trees)``.

    The trees are returned for the oracle only (``engine="memory"`` on the
    same trees); the collection under test is opened from ``root``.
    """
    collection = Collection.create(root)
    trees = []
    for index in range(n_docs):
        tree = generate_treebank(nodes_per_doc, seed=seed * 1000 + index)
        collection.add_document(tree, doc_id=f"tb-{index:03d}", save=False)
        trees.append(tree)
    collection.save_manifest()
    return collection, trees


def adhoc_queries(seed: int, count: int) -> list[dict]:
    """``count`` distinct fresh queries: plan-cache miss on every one.

    Even ops are the paper's random ``w1.w2*.w3`` regular path queries
    (Section 6.2) in TMNF; odd ops are random XPath paths with a predicate
    (a predicate keeps them off the one-scan streaming backend, so every op
    costs the same two scans per document and the page counters repeat).
    """
    rng = random.Random(f"adhoc/{seed}")
    seen: set[str] = set()
    queries: list[dict] = []
    while len(queries) < count:
        if len(queries) % 2 == 0:
            path = random_path_query(rng.randint(4, 8), TREEBANK_ALPHABET, rng)
            entry = {"language": "tmnf", "query": path.to_program_text(STEP_SOME_CHILD)}
        else:
            steps = [rng.choice(TREEBANK_ALPHABET) for _ in range(rng.randint(2, 4))]
            where = rng.randrange(len(steps))
            steps[where] += f"[{rng.choice(TREEBANK_ALPHABET + ('W',))}]"
            joins = [rng.choice(("/", "//")) for _ in steps]
            text = "//" + steps[0] + "".join(j + s for j, s in zip(joins[1:], steps[1:]))
            entry = {"language": "xpath", "query": text}
        if entry["query"] not in seen:
            seen.add(entry["query"])
            queries.append(entry)
    return queries


# ---------------------------------------------------------------------- #
# The update oracle: a flat pre-order model of the document
# ---------------------------------------------------------------------- #


class FlatDocument:
    """A document as two pre-order lists, label and depth.

    Independent of the program's tree types and splice logic on purpose: it
    is the reference the update workload's final record stream and probe
    answers are held to.  Subtrees are contiguous ranges, so every update is
    one list splice.  ``pairs`` counts the nodes by ``(parent's label, own
    label)`` and is kept up to date by every update, which makes a probe's
    expected answer a lookup, not a pass over the document.
    """

    def __init__(self, labels: list[str], depth: list[int], pairs: Counter | None = None):
        self.labels = labels
        self.depth = depth
        self.pairs = Counter(self._pairs(0, len(labels), None)) if pairs is None else pairs

    @classmethod
    def from_events(cls, events) -> "FlatDocument":
        labels: list[str] = []
        depth: list[int] = []
        level = 0
        for kind, label, _ in events:
            if kind == _BEGIN:
                labels.append(label)
                depth.append(level)
                level += 1
            else:
                level -= 1
        return cls(labels, depth)

    def copy(self) -> "FlatDocument":
        return FlatDocument(list(self.labels), list(self.depth), Counter(self.pairs))

    def __len__(self) -> int:
        return len(self.labels)

    def _pairs(self, start: int, end: int, above: str | None) -> Iterator[tuple[str | None, str]]:
        """``(parent's label, label)`` of every node of the forest ``[start, end)``
        whose roots hang under a node labelled ``above``."""
        labels, depth = self.labels, self.depth
        if start == end:
            return
        top = depth[start]
        path = [above]  # path[k]: label of the open node at depth top - 1 + k
        for node in range(start, end):
            level = depth[node] - top
            del path[level + 1:]
            yield path[level], labels[node]
            path.append(labels[node])

    def subtree_end(self, node: int) -> int:
        """One past the last descendant of ``node``."""
        depth, level = self.depth, self.depth[node]
        end = node + 1
        while end < len(depth) and depth[end] > level:
            end += 1
        return end

    def children(self, node: int) -> list[int]:
        depth, below = self.depth, self.depth[node] + 1
        return [n for n in range(node + 1, self.subtree_end(node)) if depth[n] == below]

    def parent_of(self, node: int) -> int:
        parent = node - 1
        while self.depth[parent] >= self.depth[node]:
            parent -= 1
        return parent

    def count(self, xpath: str) -> int:
        """Nodes selected by ``//a`` or ``//a/b`` (all the probe pool needs)."""
        steps = xpath.removeprefix("//").split("/")
        if not 1 <= len(steps) <= 2 or not xpath.startswith("//"):
            raise ValueError(f"the flat oracle does not evaluate {xpath!r}")
        if len(steps) == 2:
            return self.pairs[steps[0], steps[1]]
        return sum(n for (_, label), n in self.pairs.items() if label == steps[0])

    def apply(self, spec: dict) -> None:
        """Apply one update in the wire/``op_from_spec`` dictionary format."""
        kind = spec["kind"]
        if kind == "relabel":
            node, new = spec["node"], spec["label"]
            old = self.labels[node]
            above = self.labels[self.parent_of(node)] if node else None
            self.pairs[above, old] -= 1
            self.pairs[above, new] += 1
            for child in self.children(node):
                self.pairs[old, self.labels[child]] -= 1
                self.pairs[new, self.labels[child]] += 1
            self.labels[node] = new
        elif kind == "delete":
            node = spec["node"]
            end = self.subtree_end(node)
            self.pairs.subtract(self._pairs(node, end, self.labels[self.parent_of(node)]))
            del self.labels[node:end]
            del self.depth[node:end]
        elif kind == "insert":
            parent = spec["parent"]
            children = self.children(parent)
            at = spec.get("at")
            where = self.subtree_end(parent) if at is None or at == len(children) else children[at]
            fragment = FlatDocument.from_events(_xml_events(spec["xml"]))
            self.labels[where:where] = fragment.labels
            self.depth[where:where] = [level + self.depth[parent] + 1 for level in fragment.depth]
            self.pairs.update(self._pairs(where, where + len(fragment), self.labels[parent]))
        else:
            raise ValueError(f"unknown update kind {kind!r}")

    def events(self) -> Iterator[tuple[int, str, bool]]:
        """The document as a build event stream (for the from-scratch rebuild)."""
        open_labels: list[str] = []
        for label, level in zip(self.labels, self.depth):
            while len(open_labels) > level:
                yield (_END, open_labels.pop(), False)
            yield (_BEGIN, label, False)
            open_labels.append(label)
        while open_labels:
            yield (_END, open_labels.pop(), False)


def _xml_events(xml: str) -> Iterator[tuple[int, str, bool]]:
    """Events of the tiny element-only fragments the schedules insert."""
    for token in xml.replace(">", "").split("<")[1:]:
        if token.startswith("/"):
            yield (_END, token[1:], False)
        elif token.endswith("/"):
            yield (_BEGIN, token[:-1], False)
            yield (_END, token[:-1], False)
        else:
            yield (_BEGIN, token, False)


def _record_xml(rng: random.Random) -> str:
    kind = rng.choice(("article", "inproceedings", "book"))
    return f"<{kind}>" + "<author/>" * rng.randint(1, 4) + f"<title/><year/></{kind}>"


def _single_update(model: FlatDocument, rng: random.Random, kind: str) -> dict:
    """One valid update against ``model``'s current state: ``r`` relabels an
    ``article/author`` to ``editor``, ``i`` inserts a record under a venue,
    ``d`` deletes a record."""
    if kind == "r":
        while True:  # rejection sampling: about one node in five qualifies
            node = rng.randrange(1, len(model))
            if model.labels[node] == "author" and model.labels[model.parent_of(node)] == "article":
                return {"kind": "relabel", "node": node, "label": "editor"}
    venue = rng.randrange(1, len(model))  # the venue a random node lies in
    while model.depth[venue] != 1:
        venue -= 1
    records = model.children(venue)
    if kind == "i" or len(records) < 2:
        return {"kind": "insert", "parent": venue, "xml": _record_xml(rng),
                "at": rng.randrange(len(records) + 1)}
    return {"kind": "delete", "node": rng.choice(records)}


#: One round of update-stream: singles, a probe, one group commit, a probe.
#: The kinds are a fixed pattern (75 % relabel, 12.5 % insert, 12.5 % delete)
#: and only the nodes are drawn from the seed: a structural update costs
#: several relabels, so a drawn mix would make rounds, and seeds, cost
#: different amounts.
SINGLE_KINDS = "rrirrdrr"
GROUP_KINDS = SINGLE_KINDS * 2


def update_rounds(model: FlatDocument, seed: int, n_rounds: int) -> list[list[dict]]:
    """``n_rounds`` rounds of steps for update-stream, valid in order.

    A round is one single apply per letter of ``SINGLE_KINDS``, a probe
    batch, one ``apply_many`` group of ``GROUP_KINDS`` and a second probe.  Each probe
    step carries the counts the :class:`FlatDocument` expects at that point.
    ``model`` is advanced through the whole schedule; replay a copy over the
    executed prefix to get the state the program should have reached.
    """
    rng = random.Random(f"updates/{seed}")

    def probe() -> dict:
        return {"step": "probe", "expected": [model.count(query) for query in PROBE_BATCH]}

    rounds = []
    for _ in range(n_rounds):
        steps: list[dict] = []
        for kind in SINGLE_KINDS:
            spec = _single_update(model, rng, kind)
            model.apply(spec)
            steps.append({"step": "apply", "op": spec})
        steps.append(probe())
        group = []
        for kind in GROUP_KINDS:
            spec = _single_update(model, rng, kind)
            model.apply(spec)
            group.append(spec)
        steps.append({"step": "apply_many", "ops": group})
        steps.append(probe())
        rounds.append(steps)
    return rounds


READS_PER_BURST = 7
#: Generations every write workload keeps (the newest plus three before it).
#: It bounds the space a write stream takes: without it every commit would
#: keep its whole generation forever.
RETAIN_GENERATIONS = 4


def wire_bursts(oracle: DblpOracle, seed: int, n_connections: int, n_bursts: int) -> list[list[list[dict]]]:
    """Per connection, ``n_bursts`` bursts of 7 reads + 1 update (wire messages).

    Every update relabels a *distinct* ``article/author`` to ``editor``, so
    after ``k`` committed updates ``//article/author`` has lost exactly ``k``
    answers and ``//editor`` has gained them, whichever order the two
    connections' updates landed in.
    """
    rng = random.Random(f"wire/{seed}")
    targets = rng.sample(oracle.article_author_ids, n_connections * n_bursts)
    schedule = []
    for connection in range(n_connections):
        bursts = []
        for burst in range(n_bursts):
            lines = []
            for _ in range(READS_PER_BURST):
                which = rng.randrange(len(WIRE_READS))
                message = {"query": WIRE_READS[which], "language": "xpath"}
                if which == 2:
                    message["ids"] = True
                lines.append(message)
            node = targets[connection * n_bursts + burst]
            lines.insert(
                rng.randrange(len(lines) + 1),
                {"op": "update", "retain": RETAIN_GENERATIONS,
                 "ops": [{"kind": "relabel", "node": node, "label": "editor"}]},
            )
            bursts.append(lines)
        schedule.append(bursts)
    return schedule


def base_bytes(base_path: str) -> int:
    """Bytes of every file of one base path: all generations, sidecars, WAL."""
    directory, stem = os.path.split(base_path)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith(stem + ".")
    )


def tree_bytes(root: str) -> int:
    """Bytes of every file under a directory (a collection's whole footprint)."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )
