"""Page skipping through the `.idx` sidecar: pages read vs. batch selectivity.

Builds one synthetic document of 100 sections (distinct tags ``s00``..
``s99``, 100 leaves each) on small 1 KiB pages, then runs query batches
that touch 1, 10 and 100 contiguous sections -- selectivity 0.01, 0.1 and
1.0 -- against the cost of the plain scan pair, which needs no run to
know: every page of the `.arb` file twice.  The page-summary sidecar lets
the scan pair skip every page whose labels are disjoint from the batch's
reachable-label set, so ``pages_read`` shrinks with selectivity while the
answers stay identical.

Run with::

    PYTHONPATH=src python examples/selectivity_demo.py
"""

from __future__ import annotations

import os
import tempfile

from repro import Database

N_SECTIONS = 100
LEAVES_PER_SECTION = 100
PAGE_SIZE = 1024

DOC = (
    "<doc>"
    + "".join(
        f"<s{i:02d}>" + "<leaf/>" * LEAVES_PER_SECTION + f"</s{i:02d}>"
        for i in range(N_SECTIONS)
    )
    + "</doc>"
)


def _batch(n_sections: int) -> list[str]:
    # Contiguous sections: page skipping works on runs of irrelevant pages,
    # so a clustered batch shows the index at its best.
    return [f"QUERY :- V.Label[s{i:02d}];" for i in range(n_sections)]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "sections")
        database = Database.build(DOC, base, page_size=PAGE_SIZE)
        print(
            f"document: {database.n_nodes} nodes, {N_SECTIONS} sections, "
            f"{PAGE_SIZE}-byte pages"
        )

        # One backward plus one forward scan of the whole file.
        full_pages = 2 * -(-database.disk.file_size() // PAGE_SIZE)
        print(f"full scan pair: {full_pages} pages\n")

        print(
            f"{'queries':>8}  {'selectivity':>11}  {'pages_read':>10}  "
            f"{'of full':>8}  {'selected':>8}"
        )
        for n_sections in (1, 10, N_SECTIONS):
            batch = _batch(n_sections)
            result = database.query_many(batch)
            pages = result.arb_io.pages_read
            selected = sum(r.statistics.selected for r in result.results)
            print(
                f"{len(batch):>8}  {n_sections / N_SECTIONS:>11.2f}  "
                f"{pages:>10}  {pages / full_pages:>7.0%}  {selected:>8}"
            )

        # Skipping changes no answer: the in-memory evaluator reads no pages.
        for n_sections in (1, 10, N_SECTIONS):
            batch = _batch(n_sections)
            indexed = database.query_many(batch)
            in_memory = database.query_many(batch, engine="memory")
            assert [r.selected for r in indexed.results] == [
                r.selected for r in in_memory.results
            ]
        print("\nanswers verified identical to the in-memory evaluation")


if __name__ == "__main__":
    main()
