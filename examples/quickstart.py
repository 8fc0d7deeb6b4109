"""Quickstart: node-selecting queries on an XML document.

Run with ``python examples/quickstart.py``.

Shows the three ways of asking the engine for nodes: a TMNF/caterpillar
program (the native query language), an XPath expression (translated to TMNF
under the hood), and the reference datalog fixpoint used to double-check
results.
"""

from __future__ import annotations

from repro import Database, evaluate_fixpoint

DOCUMENT = """
<library>
  <shelf id="fiction">
    <book><title>The Trial</title><author>Kafka</author></book>
    <book><title>Molloy</title></book>
  </shelf>
  <shelf id="reference">
    <dvd><title>Koyaanisqatsi</title></dvd>
    <book><title>VLDB 2003 proceedings</title><note/></book>
  </shelf>
</library>
"""


def main() -> None:
    database = Database.from_xml(DOCUMENT, text_mode="ignore")
    print(f"loaded document with {database.n_nodes} element nodes")

    # 1. A TMNF / caterpillar query: books that have a <title> child.
    #    (walk from every title node up its sibling chain and one step up to
    #     its parent, then intersect with the book label)
    program = """
        HasTitleChild :- Label[title].invNextSibling*.invFirstChild;
        QUERY         :- V.Label[book], HasTitleChild;
    """
    result = database.query(program, query_predicate="QUERY")
    print("\nTMNF query: books with a <title> child")
    for node in result.selected_nodes():
        print(f"  node {node}: <{database.label(node)}>")

    # 2. The same question in XPath.
    xpath_result = database.query("//book[title]", language="xpath")
    print("\nXPath //book[title] selects the same nodes:",
          xpath_result.selected_nodes() == result.selected_nodes())

    # 3. Cross-check against the naive datalog fixpoint (reference semantics).
    reference = evaluate_fixpoint(result.program, database.binary_tree())
    assert reference.selected["QUERY"] == result.selected_nodes()
    print("fixpoint reference agrees:", True)

    # 4. Evaluation statistics: the engine's two phases and lazy automata.
    stats = result.statistics
    print("\nstatistics")
    print(f"  phase 1 (bottom-up): {stats.bu_seconds * 1000:.2f} ms, "
          f"{stats.bu_transitions} transitions computed lazily")
    print(f"  phase 2 (top-down) : {stats.td_seconds * 1000:.2f} ms, "
          f"{stats.td_transitions} transitions computed lazily")

    # 5. The paper's default output: the document with selected nodes marked up.
    print("\nmarked-up output:")
    print(database.to_xml(result.selected_nodes()))


if __name__ == "__main__":
    main()
