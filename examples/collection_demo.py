"""Collections and parallelism: a corpus of documents, one query surface.

Builds a small collection of XML documents under a temporary directory,
evaluates a batch of queries over every document in this process, and prints
the merged answers together with the statistics that make the point of the
layer: every document's `.arb` file is read with exactly one backward plus
one forward linear scan however many queries ride in the batch, and from the
second document on every evaluation is a plan-cache hit (the compiled
automata are shared across documents through the collection's keyed plan
cache).  It then runs the same batch on 4 worker processes, which give the
same answers.

Run with:  PYTHONPATH=src python examples/collection_demo.py
"""

from __future__ import annotations

import tempfile

from repro import Collection
from repro.plan import PlanCache

LIBRARY_TEMPLATE = """\
<library>
  <book><title>{title}</title><author>{author}</author></book>
  <dvd><title>{title}</title></dvd>
  <book><title>extra</title></book>
</library>
"""

QUERIES = [
    # All book elements, in TMNF.
    "QUERY :- V.Label[book];",
    # Walk up from a title to its parent: books whose first child is a title.
    "QUERY :- V.Label[title].invFirstChild.Label[book];",
]


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        collection = Collection.create(f"{directory}/library", plan_cache=PlanCache())
        for index in range(8):
            document = LIBRARY_TEMPLATE.format(title=f"t{index}", author=f"a{index}")
            collection.add_document(document, doc_id=f"shelf-{index}", text_mode="ignore")
        print(f"built {collection!r}")

        result = collection.query_many(QUERIES)
        for index, program in enumerate(result.programs):
            total = result.count(query_index=index)
            print(f"query {index}: {total} nodes selected across "
                  f"{len(result)} documents")
            for doc_id, nodes in sorted(result.selected_nodes(query_index=index).items()):
                print(f"    {doc_id}: {nodes}")

        arb = result.arb_io
        print(f"\n.arb I/O    : {arb.pages_read} pages in {arb.seeks} linear scans "
              f"(= 2 per document, for {len(QUERIES)} queries)")
        print(f"plan cache  : {result.statistics.plan_cache_hits} hits / "
              f"{result.statistics.plan_cache_misses} misses across "
              f"{result.n_shards} shards")
        print(f"wall time   : {result.wall_seconds:.4f}s in this process")

        parallel = collection.query_many(QUERIES, n_workers=4)
        same = all(
            parallel.selected_nodes(query_index=index) == result.selected_nodes(query_index=index)
            for index in range(len(QUERIES))
        )
        print(f"4 workers   : {parallel.wall_seconds:.4f}s on {parallel.n_shards} "
              f"processes, same answers: {same}")


if __name__ == "__main__":
    main()
