"""Reference implementations: brute force, enumeration, separator check."""

from __future__ import annotations

from collections import deque

import pytest

from treeprobe import ExactOracle, shaped_tree, validate_tree

from reference import (
    EnumerationCapError,
    NotAnEdgeError,
    QueryMatrix,
    brute_force_reconstruct,
    check_separator,
    enumerate_trees,
    tree_equals,
)


class TestQueryMatrix:
    def test_collects_every_ordered_pair(self, bent_tree):
        oracle = ExactOracle(bent_tree)
        matrix = QueryMatrix.collect(oracle, range(11))
        assert len(matrix.bits) == 11 * 10
        assert oracle.calls == 11 * 10
        assert matrix.bits[(8, 0)] == 1
        assert matrix.bits[(0, 8)] == 0

    def test_tree_matrices_are_transitive(self, spine_tree):
        matrix = QueryMatrix.collect(ExactOracle(spine_tree), range(11))
        assert matrix.is_transitive()

    def test_corrupted_matrix_is_caught(self, spine_tree):
        matrix = QueryMatrix.collect(ExactOracle(spine_tree), range(11))
        matrix.bits[(0, 4)] = 0  # 0 -> 1 and 1 -> 4 still claim paths
        assert not matrix.is_transitive()


class TestBruteForce:
    def test_deepest_ancestor_becomes_the_parent(self, spine_tree):
        # Ancestors of node 2 are {0, 1}; node 1 has one ancestor and node 0
        # none, so 1 wins.
        edges = brute_force_reconstruct(ExactOracle(spine_tree), range(11))
        assert (1, 2) in edges

    def test_single_node(self):
        assert brute_force_reconstruct(ExactOracle(shaped_tree("star", 1)), [0]) == set()

    def test_spends_exactly_the_full_pair_budget(self, bent_tree):
        oracle = ExactOracle(bent_tree)
        edges = brute_force_reconstruct(oracle, range(11))
        assert edges == set(bent_tree.edges())
        assert oracle.calls == 11 * 10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_recovers_every_small_tree(self, n):
        for tree in enumerate_trees(n, n):
            edges = brute_force_reconstruct(ExactOracle(tree), range(n))
            assert edges == set(tree.edges())


class TestEnumerateTrees:
    @pytest.mark.parametrize(
        "n, bound, count",
        [
            (1, 1, 1),
            (2, 1, 2),
            (3, 2, 9),
            (3, 1, 0),
            (4, 3, 64),
            (4, 2, 48),
            (5, 4, 625),
            (5, 2, 300),
        ],
    )
    def test_counts(self, n, bound, count):
        assert sum(1 for _ in enumerate_trees(n, bound)) == count

    def test_yields_each_tree_once(self):
        arrays = [t.parent for t in enumerate_trees(4, 3)]
        assert len(arrays) == len(set(arrays))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            next(enumerate_trees(8, 3))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            next(enumerate_trees(0, 3))


def _flood_fill_sizes(tree, parent_node, child_node):
    """Component sizes after deleting one skeleton edge, the slow way."""
    neighbours = [[] for _ in range(tree.n)]
    for p, c in tree.edges():
        if (p, c) != (parent_node, child_node):
            neighbours[p].append(c)
            neighbours[c].append(p)
    seen = {child_node}
    queue = deque([child_node])
    while queue:
        u = queue.popleft()
        for w in neighbours[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen), tree.n - len(seen)


class TestCheckSeparator:
    def test_balanced_cut_in_the_bent_tree(self, bent_tree):
        assert check_separator(bent_tree, (2, 1))  # sides of 5 and 6 at n=11, d=3

    def test_middle_of_a_short_chain(self):
        chain = shaped_tree("chain", 4)
        assert check_separator(chain, (1, 2))  # 2 and 2 within [2, 2]

    def test_end_of_a_short_chain(self):
        chain = shaped_tree("chain", 4)
        assert not check_separator(chain, (2, 3))  # a 1-node side misses [2, 2]
        assert not check_separator(chain, (0, 1))

    def test_non_edges_are_rejected(self):
        chain = shaped_tree("chain", 4)
        with pytest.raises(NotAnEdgeError):
            check_separator(chain, (0, 2))
        with pytest.raises(NotAnEdgeError):
            check_separator(chain, (1, 0))  # true edge, wrong orientation

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_agrees_with_flood_fill_on_all_small_trees(self, bound):
        for tree in enumerate_trees(5, bound):
            floor = -(-(tree.n - 1) // bound)
            for p, c in tree.edges():
                below, rest = _flood_fill_sizes(tree, p, c)
                assert check_separator(tree, (p, c)) == (
                    below >= floor and rest >= floor
                )


def test_enumerated_trees_carry_the_requested_bound():
    trees = list(enumerate_trees(3, 2))
    assert all(t.degree_bound == 2 for t in trees)
    assert all(tree_equals(t, validate_tree(t.parent, 2)) for t in trees)
