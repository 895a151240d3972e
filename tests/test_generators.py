"""Hidden-tree generators: determinism, bounds, and the named shapes."""

from __future__ import annotations

import random

import pytest

from treeprobe import (
    InvalidTreeError,
    parallel_chain,
    random_tree,
    shaped_tree,
    uniform_weights,
)
from treeprobe.trees import max_node_degree

from reference import random_tree_by_randrange, tree_equals


class TestRandomTree:
    def test_same_seed_same_tree(self):
        assert tree_equals(random_tree(40, 3, seed=11), random_tree(40, 3, seed=11))

    def test_seeds_reach_many_topologies(self):
        arrays = {random_tree(4, 3, seed=s).parent for s in range(200)}
        assert len(arrays) >= 30

    @pytest.mark.parametrize("n, bound", [(2, 1), (10, 2), (25, 3), (60, 5)])
    def test_respects_the_degree_bound(self, n, bound):
        for seed in range(10):
            tree = random_tree(n, bound, seed=seed)
            assert tree.n == n
            assert max_node_degree(tree.parent) <= bound

    def test_degree_two_gives_a_path(self):
        tree = random_tree(12, 2, seed=5)
        degree = [len(kids) for kids in tree.children]
        assert max(degree) <= 2
        assert sum(1 for v in range(12) if not tree.children[v]) <= 2  # path ends

    def test_two_nodes_at_degree_one(self):
        tree = random_tree(2, 1, seed=0)
        assert sorted(tree.edges()) in ([(0, 1)], [(1, 0)])

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(InvalidTreeError, match="no tree on 3 nodes fits degree bound 1"):
            random_tree(3, 1, seed=0)
        with pytest.raises(InvalidTreeError, match="degree bound must be >= 1, got 0"):
            random_tree(5, 0, seed=0)
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            random_tree(0, 3, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_draws_match_randrange_and_shuffle(self, d):
        # The inlined draws take the bits Random._randbelow takes, so every
        # seed gives the parent array randrange and shuffle give.
        for n in range(1, 41):
            if n >= 3 and d < 2:
                continue
            for seed in range(25):
                assert random_tree(n, d, seed).parent == random_tree_by_randrange(n, d, seed).parent


class TestShapedTree:
    def test_chain(self):
        assert shaped_tree("chain", 4).parent == (-1, 0, 1, 2)

    def test_star(self):
        star = shaped_tree("star", 6)
        assert star.parent == (-1, 0, 0, 0, 0, 0)
        assert star.degree_bound == 5

    def test_caterpillar(self):
        assert shaped_tree("caterpillar", 7).parent == (-1, 0, 1, 2, 0, 1, 2)
        assert shaped_tree("caterpillar", 2).parent == (-1, 0)

    def test_balanced(self):
        tree = shaped_tree("balanced", 7)
        assert tree.parent == (-1, 0, 0, 1, 1, 2, 2)

    def test_single_node_shapes(self):
        for shape in ("chain", "star", "caterpillar", "balanced"):
            assert shaped_tree(shape, 1).parent == (-1,)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            shaped_tree("zigzag", 5)

    def test_nonpositive_n(self):
        with pytest.raises(ValueError):
            shaped_tree("chain", 0)


class TestParallelChain:
    def test_three_branches_of_four(self):
        tree = parallel_chain(3, 4)
        assert tree.n == 13
        assert tree.parent == (-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11)
        assert tree.root == 0
        assert len(tree.children[0]) == 3
        leaves = [v for v in range(13) if not tree.children[v]]
        assert leaves == [4, 8, 12]

    def test_single_branch_is_a_chain(self):
        assert parallel_chain(1, 5).parent == (-1, 0, 1, 2, 3, 4)

    def test_bound_is_the_branch_count_when_wide(self):
        assert parallel_chain(4, 3).degree_bound == 4
        assert parallel_chain(1, 4).degree_bound == 2

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            parallel_chain(0, 3)
        with pytest.raises(ValueError):
            parallel_chain(3, 0)


class TestUniformWeights:
    def test_deterministic_and_in_range(self, bent_tree):
        first = uniform_weights(bent_tree, seed=3)
        second = uniform_weights(bent_tree, seed=3)
        assert dict(first.weights) == dict(second.weights)
        assert set(first.weights) == set(bent_tree.edges())
        assert all(0.0 < w <= 1.0 for w in first.weights.values())

    def test_seeds_vary_the_weights(self, bent_tree):
        a = uniform_weights(bent_tree, seed=1)
        b = uniform_weights(bent_tree, seed=2)
        assert dict(a.weights) != dict(b.weights)

    @pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (2, 1, 4), (11, 3, 7), (300, 3, 1), (300, 10, 2)])
    def test_weights_are_the_ones_drawn_over_sorted_edges(self, n, d, seed):
        # One uniform (0, 1] draw per edge, in (parent, child) order: the
        # same keys in the same order and the same floats, bit for bit.
        tree = random_tree(n, d, seed=seed)
        rng = random.Random(seed + 1)
        edges = sorted((p, c) for c, p in enumerate(tree.parent) if p != -1)
        expected = [(edge, (1.0 - rng.random()).hex()) for edge in edges]
        weights = uniform_weights(tree, seed=seed + 1).weights
        assert [(edge, w.hex()) for edge, w in weights.items()] == expected
