"""Ground-truth tree core: validation, ancestry, skeleton paths, bags."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprobe import (
    InvalidTreeError,
    WeightedDirectedRootedTree,
    from_edges,
    random_tree,
    validate_tree,
)
from treeprobe.trees import ROOT, check_degree_feasible, max_node_degree

from conftest import BENT_PARENT, SPINE_PARENT, parent_array_trees
from reference import (
    bag_nodes,
    check_weights_by_key_sets,
    is_ancestor,
    root_chain,
    skeleton_path,
    subtree_nodes,
    subtree_size,
    tree_equals,
    validate_tree_node_by_node,
)

# Ways to break a valid parent array; "entry" writes one of ENTRIES.
MUTATIONS = ["second root", "no root", "self-parent", "cycle", "out of range", "negative", "entry"]
ENTRIES = [-1.0, 0.0, None, "1", True]


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the message of the InvalidTreeError
    it raises."""
    try:
        return call(*args)
    except InvalidTreeError as err:
        return str(err)


def _mutate(tree, parent, mutation, data) -> None:
    n = tree.n
    v = data.draw(st.integers(0, n - 1), label="node")
    if mutation == "second root":
        parent[v] = ROOT
    elif mutation == "no root":
        parent[tree.root] = v
    elif mutation == "self-parent":
        parent[v] = v
    elif mutation == "cycle" and v != tree.root:
        parent[v] = data.draw(st.sampled_from(subtree_nodes(tree, v)), label="below")
    elif mutation == "out of range":
        parent[v] = data.draw(st.integers(n, n + 3), label="past")
    elif mutation == "negative":
        parent[v] = data.draw(st.integers(-n - 3, -2), label="below zero")
    elif mutation == "entry":
        parent[v] = data.draw(st.sampled_from(ENTRIES), label="entry")


class TestValidateTree:
    def test_accepts_chain_and_derives_children(self):
        tree = validate_tree([-1, 0, 1], 2)
        assert tree.root == 0
        assert tree.children == ((1,), (2,), ())
        assert tree.n == 3
        assert list(tree.edges()) == [(0, 1), (1, 2)]

    def test_single_node(self):
        tree = validate_tree([-1], 1)
        assert tree.root == 0
        assert list(tree.edges()) == []

    def test_two_roots_rejected(self):
        with pytest.raises(InvalidTreeError, match=r"nodes \[0, 1\] all claim to be the root"):
            validate_tree([-1, -1, 0], 2)

    def test_no_root_rejected(self):
        with pytest.raises(InvalidTreeError, match="no root: every parent chain must then loop"):
            validate_tree([1, 0], 2)

    def test_self_parent_rejected(self):
        with pytest.raises(InvalidTreeError, match="node 1 is its own parent"):
            validate_tree([-1, 1], 2)

    def test_cycle_off_the_root_rejected(self):
        # 1 and 2 point at each other while 0 is a lone root.
        with pytest.raises(
            InvalidTreeError, match=r"nodes \[1, 2\] are not reachable from the root"
        ):
            validate_tree([-1, 2, 1], 3)

    def test_parent_out_of_range_rejected(self):
        with pytest.raises(InvalidTreeError, match="parent of node 1 is out of range: 5"):
            validate_tree([-1, 5], 2)

    def test_degree_bound_enforced(self):
        with pytest.raises(InvalidTreeError, match="node 0 has degree 3, above the bound 2"):
            validate_tree([-1, 0, 0, 0], 2)  # star hub has degree 3

    def test_degree_counts_the_parent_edge(self):
        # Node 1 has two children plus its parent edge: degree 3.
        with pytest.raises(InvalidTreeError, match="node 1 has degree 3, above the bound 2"):
            validate_tree([-1, 0, 1, 1], 2)
        validate_tree([-1, 0, 1, 1], 3)

    def test_bound_below_one_rejected(self):
        with pytest.raises(InvalidTreeError, match="degree bound must be >= 1, got 0"):
            validate_tree([-1], 0)

    @pytest.mark.parametrize("bound", [float("nan"), 2.5, float("inf"), None])
    def test_bound_that_is_not_an_int_rejected(self, bound):
        # None used to raise TypeError from a comparison, and NaN, 2.5 and
        # inf passed.
        with pytest.raises(InvalidTreeError, match="degree bound must be an int, got"):
            validate_tree([-1, 0], bound)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(tree=parent_array_trees(max_n=12), data=st.data())
    def test_matches_the_node_by_node_reference(self, tree, data):
        # Up to two faults at once, so the first offender in id order is
        # named as the node-by-node check names it.
        parent = list(tree.parent)
        for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=2), label="faults"):
            _mutate(tree, parent, mutation, data)
        bound = data.draw(st.integers(1, tree.n + 1), label="bound")
        got = _outcome(validate_tree, parent, bound)
        assert got == _outcome(validate_tree_node_by_node, parent, bound)

    def test_empty_rejected(self):
        with pytest.raises(InvalidTreeError):
            validate_tree([], 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_acceptance_count_is_cayley(self, n):
        # Over every possible parent array, exactly n^(n-1) validate.
        accepted = 0
        for candidate in itertools.product([-1, *range(n)], repeat=n):
            try:
                validate_tree(candidate, n)
            except InvalidTreeError:
                continue
            accepted += 1
        assert accepted == n ** (n - 1)


class TestAncestry:
    def test_is_ancestor_on_bent_tree(self, bent_tree):
        assert is_ancestor(bent_tree, 8, 0)
        assert is_ancestor(bent_tree, 2, 10)
        assert not is_ancestor(bent_tree, 0, 8)
        assert not is_ancestor(bent_tree, 1, 3)  # siblings' subtrees

    def test_is_ancestor_rejects_self(self, bent_tree):
        with pytest.raises(ValueError, match="i and j must differ, both are 4"):
            is_ancestor(bent_tree, 4, 4)

    def test_root_chain_is_root_first(self, bent_tree):
        assert root_chain(bent_tree, 5) == [8, 2, 1, 0]
        assert root_chain(bent_tree, 8) == []

    @given(parent_array_trees(max_n=8))
    def test_is_ancestor_matches_root_chain(self, tree):
        for i in range(tree.n):
            for j in range(tree.n):
                if i != j:
                    assert is_ancestor(tree, i, j) == (i in root_chain(tree, j))


class TestSkeletonPath:
    def test_straight_walk_from_the_spine_root(self, spine_tree):
        assert skeleton_path(spine_tree, 0, 4) == ([0], [0, 1, 2, 3, 4])

    def test_bent_walk_turns_at_the_spine_middle(self, bent_tree):
        assert skeleton_path(bent_tree, 0, 4) == ([2, 1, 0], [2, 3, 4])

    def test_walk_ending_at_an_ancestor(self, bent_tree):
        # The walk 5-0-1-2-8-9 turns at the root 8.
        assert skeleton_path(bent_tree, 5, 9) == ([8, 2, 1, 0, 5], [8, 9])

    def test_adjacent_nodes(self, spine_tree):
        assert skeleton_path(spine_tree, 3, 2) == ([2, 3], [2])

    def test_rejects_self_path(self, spine_tree):
        with pytest.raises(ValueError, match="i and j must differ, both are 3"):
            skeleton_path(spine_tree, 3, 3)

    @given(parent_array_trees(min_n=2, max_n=10))
    def test_reverse_symmetry_and_lca_trichotomy(self, tree):
        for i in range(tree.n):
            for j in range(tree.n):
                if i == j:
                    continue
                to_i, to_j = skeleton_path(tree, i, j)
                assert skeleton_path(tree, j, i) == (to_j, to_i)
                assert to_i[0] == to_j[0]
                if is_ancestor(tree, i, j):
                    assert to_i == [i]
                elif is_ancestor(tree, j, i):
                    assert to_j == [j]
                else:
                    assert len(to_i) > 1 and len(to_j) > 1

    @given(parent_array_trees(min_n=2, max_n=10))
    def test_consecutive_nodes_are_skeleton_edges(self, tree):
        for j in range(1, tree.n):
            to_i, to_j = skeleton_path(tree, 0, j)
            assert to_i[-1] == 0 and to_j[-1] == j
            for slope in (to_i, to_j):
                for a, b in zip(slope, slope[1:]):
                    assert tree.parent[b] == a


class TestBagIndices:
    def test_bent_tree_bags_along_the_spine(self, bent_tree):
        bags = bag_nodes(bent_tree, *skeleton_path(bent_tree, 0, 4))
        assert bags[8] == 2 and bags[9] == 2  # root side hangs off the LCA
        assert bags[5] == 0 and bags[6] == 0 and bags[7] == 1 and bags[10] == 4
        sizes = [list(bags.values()).count(v) for v in (0, 1, 2, 3, 4)]
        assert sizes == [3, 2, 3, 1, 2]

    def test_spine_tree_bags_along_the_spine(self, spine_tree):
        bags = bag_nodes(spine_tree, *skeleton_path(spine_tree, 0, 4))
        assert bags[9] == 2 and bags[10] == 4

    @given(parent_array_trees(min_n=2, max_n=10))
    def test_bags_partition_every_node(self, tree):
        to_i, to_j = skeleton_path(tree, 0, tree.n - 1)
        bags = bag_nodes(tree, to_i, to_j)
        assert set(bags) == set(range(tree.n))
        assert set(bags.values()) <= {*to_i, *to_j}
        for node in (*to_i, *to_j):
            assert bags[node] == node


class TestHelpers:
    def test_subtree_size(self, bent_tree, spine_tree):
        assert subtree_size(bent_tree, 1) == 5
        assert subtree_size(spine_tree, 2) == 6
        assert subtree_size(spine_tree, spine_tree.root) == 11

    def test_tree_equals_ignores_the_bound(self):
        assert tree_equals(validate_tree([-1, 0], 1), validate_tree([-1, 0], 5))
        assert not tree_equals(validate_tree([-1, 0, 0], 2), validate_tree([-1, 0, 1], 2))

    def test_max_node_degree(self):
        assert max_node_degree([-1]) == 1
        assert max_node_degree([-1, 0, 1, 2]) == 2
        assert max_node_degree([-1, 0, 0, 0, 0]) == 4
        assert max_node_degree(BENT_PARENT) == 3

    def test_from_edges_round_trips_a_tree(self, spine_tree):
        rebuilt = from_edges(11, spine_tree.edges())
        assert tree_equals(rebuilt, spine_tree)

    def test_from_edges_defaults_to_the_tight_bound(self):
        assert from_edges(4, [(0, 1), (0, 2), (0, 3)]).degree_bound == 3

    def test_from_edges_rejects_duplicate_children(self):
        with pytest.raises(InvalidTreeError):
            from_edges(3, [(0, 1), (2, 1)])

    @pytest.mark.parametrize("n", [0, -1])
    def test_from_edges_refuses_a_node_count_below_one_first(self, n):
        # This said "expected -1 edges, got 0" for n = 0.
        with pytest.raises(InvalidTreeError, match="^a tree needs at least one node$"):
            from_edges(n, [])

    def test_from_edges_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidTreeError):
            from_edges(3, [(0, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(InvalidTreeError):
            from_edges(3, [(0, 1), (0, 7)])

    def test_from_edges_rejects_a_parent_past_the_last_node(self):
        # This raised IndexError from the degree count.
        with pytest.raises(InvalidTreeError, match="parent 5 of node 2 out of range"):
            from_edges(3, [(0, 1), (5, 2)])

    def test_from_edges_rejects_a_node_id_that_is_not_an_int(self):
        # This raised TypeError from indexing the parent list.
        match = r"node ids must be ints, got the edge \(0, 1\.0\)"
        with pytest.raises(InvalidTreeError, match=match):
            from_edges(2, [(0, 1.0)])

    def test_from_edges_rejects_a_node_count_that_is_not_an_int(self):
        # This raised TypeError from sizing the parent list.
        with pytest.raises(InvalidTreeError, match="node count must be an int, got 2.0"):
            from_edges(2.0, [(0, 1)])

    def test_from_edges_rejects_a_negative_parent(self):
        # A parent of -1 read as a second root.
        with pytest.raises(InvalidTreeError, match="parent -1 of node 2 out of range"):
            from_edges(3, [(0, 1), (-1, 2)])


class TestCheckDegreeFeasible:
    @pytest.mark.parametrize("n, bound", [(1, 1), (2, 1), (3, 2), (40, 10)])
    def test_a_bound_some_tree_fits_passes(self, n, bound):
        check_degree_feasible(n, bound)

    @pytest.mark.parametrize("bound", [float("nan"), 2.5, float("inf"), None])
    def test_a_bound_that_is_not_an_int_is_refused(self, bound):
        # Both comparisons are False for NaN, so it used to pass.
        with pytest.raises(InvalidTreeError, match="degree bound must be an int, got"):
            check_degree_feasible(6, bound)


class TestEdges:
    @pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (2, 1, 0), (40, 3, 5), (300, 10, 1)])
    def test_two_calls_give_the_same_child_ascending_list(self, n, d, seed):
        tree = random_tree(n, d, seed=seed)
        first, second = tree.edges(), tree.edges()
        assert type(first) is list and first == second and first is not second
        assert [c for _, c in first] == [c for c in range(n) if c != tree.root]
        assert all(tree.parent[c] == p for p, c in first)


class TestWeightedTree:
    def test_accepts_matching_weights(self, spine_tree):
        weights = {edge: 0.5 for edge in spine_tree.edges()}
        weighted = WeightedDirectedRootedTree(spine_tree, weights)
        assert weighted.n == 11

    def test_rejects_missing_or_extra_edges(self, spine_tree):
        weights = {edge: 0.5 for edge in spine_tree.edges()}
        weights.pop((0, 1))
        with pytest.raises(InvalidTreeError):
            WeightedDirectedRootedTree(spine_tree, weights)
        weights[(0, 1)] = 0.5
        weights[(4, 7)] = 0.5
        with pytest.raises(InvalidTreeError):
            WeightedDirectedRootedTree(spine_tree, weights)

    def test_rejects_nonpositive_weights(self, spine_tree):
        weights = {edge: 0.5 for edge in spine_tree.edges()}
        weights[(0, 1)] = 0.0
        with pytest.raises(InvalidTreeError):
            WeightedDirectedRootedTree(spine_tree, weights)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tree=parent_array_trees(max_n=12), data=st.data())
    def test_matches_the_key_set_reference(self, tree, data):
        weights = {edge: 0.5 for edge in tree.edges()}
        changes = ["missing", "extra", 0.0, -1.0, float("nan")]
        for change in data.draw(st.lists(st.sampled_from(changes), max_size=2), label="changes"):
            edge = data.draw(st.sampled_from(sorted(weights) or [(0, 0)]), label="edge")
            if change == "missing":
                weights.pop(edge, None)
            elif change == "extra":
                weights[edge[::-1]] = 0.5
            elif edge in weights:
                weights[edge] = change
        got = _outcome(WeightedDirectedRootedTree, tree, weights)
        expected = _outcome(check_weights_by_key_sets, tree, weights)
        assert (got if isinstance(got, str) else None) == expected
