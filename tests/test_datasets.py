"""Tests for the synthetic dataset and workload generators."""

from __future__ import annotations

import pytest

from repro.datasets import (
    ACGT_ALPHABET,
    STEP_INFIX_PREVIOUS,
    STEP_PREVIOUS_SIBLING,
    STEP_SOME_CHILD,
    TREEBANK_ALPHABET,
    acgt_flat_events,
    acgt_flat_tree,
    acgt_infix_tree,
    generate_swissprot,
    generate_swissprot_events,
    generate_treebank,
    random_path_query,
    random_query_batch,
    random_sequence,
)
from repro.datasets.acgt import infix_inorder_sequence
from repro.errors import TreeError
from repro.tmnf import TMNFProgram
from repro.tree import events_from_tree
from repro.tree import BinaryTree


class TestACGT:
    def test_random_sequence_reproducible(self):
        assert random_sequence(100, seed=5) == random_sequence(100, seed=5)
        assert random_sequence(100, seed=5) != random_sequence(100, seed=6)
        assert set(random_sequence(1000)) <= set(ACGT_ALPHABET)

    def test_flat_tree_structure(self):
        sequence = "ACGT"
        tree = acgt_flat_tree(sequence)
        assert tree.node_count() == 5
        assert [n.label for n in tree.root.children] == list(sequence)
        assert all(child.is_text for child in tree.root.children)

    def test_flat_events_match_tree(self):
        sequence = random_sequence(31, seed=1)
        events = list(acgt_flat_events(sequence))
        assert len(events) == 2 * (len(sequence) + 1)

    def test_infix_tree_inorder_spells_sequence(self):
        sequence = random_sequence(2**7 - 1, seed=4)
        tree = acgt_infix_tree(sequence)
        tree.validate()
        assert len(tree) == len(sequence) + 1
        assert infix_inorder_sequence(tree) == sequence
        # Balanced: binary depth is the exponent plus the extra root.
        assert tree.binary_depth() == 7

    def test_infix_rejects_bad_lengths(self):
        with pytest.raises(TreeError):
            acgt_infix_tree("ACGTA")  # length 5 is not 2^d - 1


class TestTreebankAndSwissprot:
    def test_treebank_size_and_tags(self):
        tree = generate_treebank(5_000, seed=2)
        assert tree.node_count() >= 5_000
        labels = tree.labels()
        assert {"S", "NP", "VP"} <= labels
        # Character nodes dominate, as in the real corpus.
        chars = tree.count_labels(lambda l: len(l) == 1)
        assert chars > tree.node_count() / 3

    def test_treebank_reproducible(self):
        a = generate_treebank(2_000, seed=3)
        b = generate_treebank(2_000, seed=3)
        assert a.equals(b)

    def test_swissprot_shape(self):
        tree = generate_swissprot(20, seed=1)
        assert len(tree.root.children) == 20
        entry = tree.root.children[0]
        assert {child.label for child in entry.children} >= {"AC", "Name", "Sequence"}

    def test_swissprot_events_match_its_tree(self):
        # The streaming form walks one entry at a time with the same event
        # walk the builder uses, so it must spell the very same document.
        events = list(generate_swissprot_events(12, seed=4))
        assert events == list(events_from_tree(generate_swissprot(12, seed=4)))
        assert any(is_text for _, _, is_text in events)


class TestRandomQueries:
    def test_sizes_and_reproducibility(self):
        batch = random_query_batch(7, TREEBANK_ALPHABET, count=25)
        assert len(batch) == 25
        assert all(query.size == 7 for query in batch)
        assert batch == random_query_batch(7, TREEBANK_ALPHABET, count=25)

    def test_words_are_non_empty(self):
        import random as random_module

        rng = random_module.Random(0)
        for size in range(3, 16):
            query = random_path_query(size, ACGT_ALPHABET, rng)
            assert len(query.w1) >= 1 and len(query.w2) >= 1 and len(query.w3) >= 1
            assert query.size == size

    def test_size_below_three_rejected(self):
        import random as random_module

        with pytest.raises(ValueError):
            random_path_query(2, ACGT_ALPHABET, random_module.Random(0))

    @pytest.mark.parametrize("step", [STEP_SOME_CHILD, STEP_PREVIOUS_SIBLING, STEP_INFIX_PREVIOUS])
    def test_rendered_programs_parse(self, step):
        for query in random_query_batch(6, ACGT_ALPHABET, count=5):
            program = TMNFProgram.parse(query.to_program_text(step))
            assert program.query_predicates == ("QUERY",)
            assert program.n_idb >= query.size

    def test_program_size_grows_linearly_with_query_size(self):
        """|IDB| and |P| grow linearly in the query size (Figure 6, cols 2-3)."""
        sizes = (5, 10, 15)
        idb_counts = []
        for size in sizes:
            batch = random_query_batch(size, TREEBANK_ALPHABET, count=5)
            programs = [TMNFProgram.parse(q.to_program_text(STEP_SOME_CHILD)) for q in batch]
            idb_counts.append(sum(p.n_idb for p in programs) / len(programs))
        growth_first = idb_counts[1] - idb_counts[0]
        growth_second = idb_counts[2] - idb_counts[1]
        assert growth_first > 0 and growth_second > 0
        assert abs(growth_first - growth_second) <= max(growth_first, growth_second)

    def test_flat_and_infix_select_same_counts(self):
        """The paper's cross-encoding consistency property on a small instance."""
        from repro.core.two_phase import TwoPhaseEvaluator

        sequence = random_sequence(2**8 - 1, seed=12)
        flat = BinaryTree.from_unranked(acgt_flat_tree(sequence))
        infix = acgt_infix_tree(sequence)
        for query in random_query_batch(5, ACGT_ALPHABET, count=5, seed=77):
            flat_program = TMNFProgram.parse(query.to_program_text(STEP_PREVIOUS_SIBLING))
            infix_program = TMNFProgram.parse(query.to_program_text(STEP_INFIX_PREVIOUS))
            n_flat = len(TwoPhaseEvaluator(flat_program).evaluate(flat).selected["QUERY"])
            n_infix = len(TwoPhaseEvaluator(infix_program).evaluate(infix).selected["QUERY"])
            assert n_flat == n_infix
