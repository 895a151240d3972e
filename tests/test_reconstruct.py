"""Query-driven reconstruction, from sub-procedures to the full driver."""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprobe import (
    AdditiveOracle,
    ExactOracle,
    InconsistentOracleError,
    InvalidTreeError,
    NoisyOracle,
    WeightedDirectedRootedTree,
    parallel_chain,
    random_tree,
    reconstruct_tree,
    reconstruct_weighted,
    run_single,
    shaped_tree,
    uniform_weights,
    validate_tree,
    vote_size,
)
from treeprobe import reconstruct
from treeprobe.reconstruct import (
    find_even_separator,
    path_pieces,
    reconstruct_skeleton_path,
    search_plan,
    sort_by_ancestry,
)
from treeprobe.trees import ROOT

from conftest import ScriptedRng, parent_array_trees
from reference import (
    accepted_cuts,
    bag_nodes,
    descent,
    is_ancestor,
    plan_walk_pieces,
    recursive_search_plan,
    root_chain,
    skeleton_path,
    subtree_nodes,
    walk_plan,
)


class _RecordingOracle:
    """Forwarding wrapper that keeps a (i, j, answer) transcript."""

    def __init__(self, inner):
        self.inner = inner
        self.transcript = []

    def query(self, i, j):
        bit = self.inner.query(i, j)
        self.transcript.append((i, j, bit))
        return bit


class _ZeroOracle:
    """Answers 0 to everything; consistent with no rooted tree on >= 2 nodes."""

    def query(self, i, j):
        return 0


class _QueryCapExceeded(AssertionError):
    """A run asked more queries than its test allows."""


class _CappedOracle:
    """Forwarding wrapper that raises once more than ``cap`` queries are asked."""

    def __init__(self, inner, cap):
        self.inner = inner
        self.cap = cap
        self.calls = 0

    def query(self, i, j):
        self.calls += 1
        if self.calls > self.cap:
            raise _QueryCapExceeded(f"more than {self.cap} queries")
        return self.inner.query(i, j)


class _RandomLiar:
    """Answers every query with a fresh seeded coin flip."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def query(self, i, j):
        return self._rng.random() < 0.5


def _query_cap(n):
    """The budget every run in TestEveryInputTerminates must stay within.

    Under a bound below the true degree a part fails until the run's gate
    has doubled enough: a star rebuilt at bound 2 is one part, which fails
    until the bound passes its hub degree. At bound 2 over n 2-40 and rng
    seeds 0-19, every shape drawn here asks at most 0.25 n^3 queries, the
    most at n = 2 and 3. 16 n^3 leaves room for every shape and seed drawn
    here.
    """
    return 16 * n**3


class _FlippingOracle:
    """Forwards to ``inner``, but flips each answer on a seeded coin of
    ``rate``; counts the queries it answers."""

    def __init__(self, inner, rate, seed):
        self.inner = inner
        self.rate = rate
        self._rng = random.Random(seed)
        self.calls = 0

    def query(self, i, j):
        self.calls += 1
        answer = self.inner.query(i, j)
        return not answer if self._rng.random() < self.rate else answer


class _TableOracle:
    """Answers from a fixed (i, j) -> bit table, 0 where unlisted."""

    def __init__(self, table):
        self._table = dict(table)

    def query(self, i, j):
        return self._table.get((i, j), 0)


class _ReplayOracle:
    """Gives ``answers`` in order, then a yes to every later query."""

    def __init__(self, answers):
        self._answers = iter(answers)

    def query(self, i, j):
        return next(self._answers, True)


@contextlib.contextmanager
def _recording_gates(recorder):
    """Collect the transcript position and result of every gate the driver
    consults while the block runs."""
    gates = []
    real_find_even_separator = reconstruct.find_even_separator

    def find_even_separator(*args):
        gates.append((len(recorder.transcript), real_find_even_separator(*args)))
        return gates[-1][1]

    with mock.patch.object(reconstruct, "find_even_separator", find_even_separator):
        yield gates


class TestSortByAncestry:
    def test_orders_a_shuffled_chain_segment(self):
        oracle = ExactOracle(shaped_tree("chain", 8))
        assert sort_by_ancestry(oracle, [5, 2, 7, 0, 3]) == [0, 2, 3, 5, 7]

    def test_empty_and_singleton(self):
        oracle = ExactOracle(shaped_tree("chain", 3))
        assert sort_by_ancestry(oracle, []) == []
        assert sort_by_ancestry(oracle, [2]) == [2]

    @pytest.mark.parametrize("items", [[3, 5], [5, 3]])
    def test_two_items_ask_the_pair_sorted_asks(self, items):
        # Two items take one comparison, asked directly. sorted() with the
        # comparison as its key asks the same pair and returns the same
        # order, for a yes ([5, 3]) and for a no ([3, 5]).
        chain = shaped_tree("chain", 8)
        oracle = _RecordingOracle(ExactOracle(chain))
        reference = _RecordingOracle(ExactOracle(chain))
        compare = functools.cmp_to_key(lambda a, b: -1 if reference.query(a, b) else 1)
        assert sort_by_ancestry(oracle, items) == sorted(items, key=compare) == [3, 5]
        assert oracle.transcript == reference.transcript == [(items[1], items[0], items == [5, 3])]


def _shaped(shape, n, seed):
    if shape == "parallel_chain":
        return parallel_chain(3, max(1, (n - 1) // 3))
    if shape == "random":
        return random_tree(n, 3, seed=seed)
    return shaped_tree(shape, n)


def _place(oracle, path, k):
    """The path node that path_pieces hangs ``k`` from, ``k`` being the only
    node off ``path`` in its part; one node takes the unit plan."""
    pieces = path_pieces(oracle, [*path, k], path)
    return next(q[0] for q in pieces if k in q[1:])


class TestSinglePlacement:
    def test_positions_along_a_descending_run(self, spine_tree):
        # 5 and 6 hang from 0, 7 from 1, 8 and 9 from 2, and 10 from 4.
        path = [0, 1, 2, 3, 4]
        truth = bag_nodes(spine_tree, [0], path)
        oracle = ExactOracle(spine_tree)
        for k, bag in ((5, 0), (6, 0), (7, 1), (8, 2), (9, 2), (10, 4)):
            assert _place(oracle, path, k) == truth[k] == bag

    def test_query_budget_is_logarithmic(self):
        chain = shaped_tree("chain", 9)
        oracle = ExactOracle(chain)
        assert _place(oracle, list(range(8)), 8) == 7
        assert oracle.calls <= 3  # ceil(log2 8)

    def test_unit_search_asks_the_ceiling_midpoints(self, bent_tree):
        # 7 hangs from 1 on the path 8-2-1-0: the search asks 1, which hits,
        # then 0, which misses, and never the root 8.
        recorder = _RecordingOracle(ExactOracle(bent_tree))
        assert _place(recorder, [8, 2, 1, 0], 7) == 1
        assert [(a, b) for a, b, _ in recorder.transcript] == [(1, 7), (0, 7)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    def test_matches_bag_indices_on_every_shape(self, shape, n, seed, data):
        tree = _shaped(shape, n, seed)
        p, i = descent(tree, lambda k: data.draw(st.integers(min_value=0, max_value=k - 1)))
        path = skeleton_path(tree, p, i)[1]
        truth = bag_nodes(tree, [p], path)
        oracle = ExactOracle(tree)
        for k in set(subtree_nodes(tree, p)) - set(path):
            assert _place(oracle, path, k) == truth[k]


class TestReconstructSkeletonPath:
    def test_descending_walk(self, spine_tree):
        oracle = ExactOracle(spine_tree)
        assert reconstruct_skeleton_path(oracle, range(11), 4) == [0, 1, 2, 3, 4]

    def test_walk_inside_a_subtree(self, bent_tree):
        # The subtree of 2, listed 2 first; 8 and 9 lie outside it.
        part = subtree_nodes(bent_tree, 2)
        assert reconstruct_skeleton_path(ExactOracle(bent_tree), part, 0) == [2, 1, 0]

    def test_one_query_per_other_node_then_the_sort(self, spine_tree):
        # Each of the ten nodes other than the end 4 is asked once whether
        # it reaches 4, in node order; only the sort of 0, 1, 2, 3 asks
        # more, and it asks only about those four.
        recorder = _RecordingOracle(ExactOracle(spine_tree))
        assert reconstruct_skeleton_path(recorder, range(11), 4) == [0, 1, 2, 3, 4]
        scan = [(k, 4) for k in (0, 1, 2, 3, 5, 6, 7, 8, 9, 10)]
        assert [(a, b) for a, b, _ in recorder.transcript[:10]] == scan
        assert all({a, b} <= {0, 1, 2, 3} for a, b, _ in recorder.transcript[10:])

    def test_matches_ground_truth_on_both_fixtures(self, spine_tree, bent_tree):
        for tree in (spine_tree, bent_tree):
            oracle = ExactOracle(tree)
            for i in range(11):
                for p in (i, *root_chain(tree, i)):
                    _assert_matches_ground_truth(oracle, tree, p, i)

    @settings(max_examples=60, deadline=None)
    @given(parent_array_trees(min_n=2, max_n=7))
    def test_matches_ground_truth_on_random_trees(self, tree):
        oracle = ExactOracle(tree)
        for i in range(tree.n):
            for p in (i, *root_chain(tree, i)):
                _assert_matches_ground_truth(oracle, tree, p, i)


class TestBatchedScan:
    """On a plain ``ExactOracle`` each round's scan is one ``reaching`` call
    that asks ``query`` nothing, and the run is the same one, rng stream
    and all, as the run whose class-level ``query`` wrapper turns every scan
    back into one ``query`` call per pair."""

    TREES = {
        "star": lambda: shaped_tree("star", 60),
        "chain": lambda: shaped_tree("chain", 120),
        "parallel-chain": lambda: parallel_chain(3, 30),
        "random": lambda: random_tree(200, 3, seed=11),
    }

    @pytest.mark.parametrize("shape", sorted(TREES))
    @pytest.mark.parametrize("seed", range(3))
    def test_each_scan_is_one_batch_and_the_run_is_unchanged(self, monkeypatch, shape, seed):
        tree = self.TREES[shape]()
        real_scan = reconstruct.reconstruct_skeleton_path
        real_reaching = ExactOracle.reaching
        query_code = ExactOracle.query.__code__
        scans, batches = [], []

        def scan(oracle, nodes, i):
            scans.append((list(nodes), i))
            return real_scan(oracle, nodes, i)

        def reaching(self, nodes, j):
            # Count the ``query`` calls the batch makes: the fast path makes none.
            asked = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is query_code:
                    asked.append(1)

            before = self.calls
            sys.setprofile(profile)
            try:
                found = real_reaching(self, nodes, j)
            finally:
                sys.setprofile(None)
            batches.append((list(nodes), j, self.calls - before, len(asked)))
            return found

        monkeypatch.setattr(reconstruct, "reconstruct_skeleton_path", scan)
        monkeypatch.setattr(ExactOracle, "reaching", reaching)
        rng = random.Random(seed)
        batched = ExactOracle(tree)
        edges, stats = reconstruct_tree(batched, tree.n, tree.degree_bound, rng)
        assert edges == set(tree.edges()) and scans
        assert [(nodes, j) for nodes, j, _, _ in batches] == scans
        assert all(
            asked == len(nodes) - nodes.count(j) and not queries
            for nodes, j, asked, queries in batches
        )

        monkeypatch.setattr(ExactOracle, "reaching", real_reaching)
        real_query = ExactOracle.query
        seen = []

        def query(self, i, j):
            seen.append((i, j))
            return real_query(self, i, j)

        monkeypatch.setattr(ExactOracle, "query", query)
        per_pair_rng = random.Random(seed)
        per_pair = ExactOracle(tree)
        assert reconstruct_tree(per_pair, tree.n, tree.degree_bound, per_pair_rng) == (
            edges,
            stats,
        )
        assert per_pair.calls == batched.calls == len(seen)
        assert per_pair_rng.getstate() == rng.getstate()


class TestBatchedPlacement:
    """On a plain ``ExactOracle`` each placement chunk off a path of other
    than two nodes is one ``deepest`` call that asks ``query`` nothing, and
    the run is the same one, rng stream and all, as the run whose
    class-level ``query`` wrapper turns every walk back into one ``query``
    call per pair."""

    TREES = {
        "star": lambda: shaped_tree("star", 60),
        "chain": lambda: shaped_tree("chain", 120),
        "parallel-chain": lambda: parallel_chain(3, 30),
        "caterpillar": lambda: shaped_tree("caterpillar", 120),
        "random": lambda: random_tree(400, 3, seed=11),
    }

    @pytest.mark.parametrize("shape", sorted(TREES))
    @pytest.mark.parametrize("seed", range(3))
    def test_each_chunk_is_one_batch_and_the_run_is_unchanged(self, monkeypatch, shape, seed):
        tree = self.TREES[shape]()
        real_pieces = reconstruct.path_pieces
        real_deepest = ExactOracle.deepest
        query_code = ExactOracle.query.__code__
        chunks, batches = [], []

        def pieces(oracle, part, path):
            if len(path) != 2:
                on_path = set(path)
                todo = [k for k in part if k not in on_path]
                start, stop = 0, 16
                while True:
                    chunks.append((list(path), todo[start:stop]))
                    if stop >= len(todo):
                        break
                    start, stop = stop, stop * 8
            return real_pieces(oracle, part, path)

        def deepest(self, path, plan, nodes):
            # Count the ``query`` calls the batch makes: the fast path makes none.
            asked = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is query_code:
                    asked.append(1)

            before = self.calls
            sys.setprofile(profile)
            try:
                found = real_deepest(self, path, plan, nodes)
            finally:
                sys.setprofile(None)
            walked = ExactOracle(tree)
            batches.append((list(path), list(nodes), len(asked)))
            assert found == walk_plan(walked.query, path, plan, nodes)
            assert self.calls - before == walked.calls
            return found

        monkeypatch.setattr(reconstruct, "path_pieces", pieces)
        monkeypatch.setattr(ExactOracle, "deepest", deepest)
        rng = random.Random(seed)
        batched = ExactOracle(tree)
        edges, stats = reconstruct_tree(batched, tree.n, tree.degree_bound, rng)
        assert edges == set(tree.edges())
        # Nearly every path on a star has two nodes, which one pass places.
        assert chunks or shape == "star"
        assert [(path, nodes) for path, nodes, _ in batches] == chunks
        assert not any(queries for _, _, queries in batches)

        monkeypatch.setattr(ExactOracle, "deepest", real_deepest)
        real_query = ExactOracle.query
        seen = []

        def query(self, i, j):
            seen.append((i, j))
            return real_query(self, i, j)

        monkeypatch.setattr(ExactOracle, "query", query)
        per_pair_rng = random.Random(seed)
        per_pair = ExactOracle(tree)
        assert reconstruct_tree(per_pair, tree.n, tree.degree_bound, per_pair_rng) == (
            edges,
            stats,
        )
        assert per_pair.calls == batched.calls == len(seen)
        assert per_pair_rng.getstate() == rng.getstate()


def _magnitudes(tree, seed):
    """``tree`` with weight 1.0 on about a quarter of its edges, drawn by
    ``seed``, and 2**-53 on the rest, so that many depths tie in floats: the
    oracle sums from the deep end, and a node 2**-53 below a node whose own
    edge weighs 1.0 gets that node's depth, as 2**-53 + 1.0 rounds to 1.0."""
    rng = random.Random(seed)
    weights = {edge: 1.0 if rng.random() < 0.25 else 2.0**-53 for edge in sorted(tree.edges())}
    return WeightedDirectedRootedTree(tree, weights)


def _assert_matches_ground_truth(oracle, tree, p, i):
    """The scan of p's subtree for i gives the true path p -> i."""
    path = reconstruct_skeleton_path(oracle, subtree_nodes(tree, p), i)
    assert path == (skeleton_path(tree, p, i)[1] if p != i else [i])


class TestFindEvenSeparator:
    """The gate reads only the part's size and its best cut's smaller side:
    a side of ceil((n-1)/d) nodes or more passes it."""

    # The spine 0-1-2-3-4 of spine_tree, whose pieces from the root down
    # hold 3, 2, 3, 1 and 2 nodes.
    SPINE_PART = list(range(11))

    def test_edge_right_of_the_lca_points_forward(self):
        # A path runs down from its part's root, the walk's LCA, so each cut
        # is (parent, child). At n = 11, d = 3 a side needs 4 nodes: the 3
        # above (0, 1) are too few, and the 5 above (1, 2), its best cut,
        # do.
        assert find_even_separator(self.SPINE_PART, 3, (0, 1), 3) is None
        assert find_even_separator(self.SPINE_PART, 5, (1, 2), 3) == (1, 2)

    def test_no_balanced_edge_returns_none(self):
        # 7 of the 9 nodes hang from the middle node of the path 0 -> 1 -> 2,
        # so each of its edges leaves 1 node on one side, below the 3 that
        # n = 9, d = 3 asks for. A part that knows no edge has no cut.
        assert find_even_separator(list(range(9)), 1, (0, 1), 3) is None
        assert find_even_separator(list(range(9)), 0, None, 3) is None

    def test_tight_star_threshold_accepts_a_leaf_edge(self):
        # n = 4 around a full-degree hub 0 on the path 0 -> 1: every cut is
        # (1, 3), and the acceptance floor must come down to
        # ceil((n-1)/d) = 1 for any progress to be possible.
        assert find_even_separator([0, 1, 2, 3], 1, (0, 1), 3) == (0, 1)


class TestPathPieces:
    # Along the spine 0-1-2-3-4, 5 and 6 hang from 0, 7 from 1, 8 (which
    # carries 9) from 2, and 10 from 4.
    PIECES = [[0, 5, 6], [1, 7], [2, 8, 9], [3], [4, 10]]

    def test_spine_tree_pieces(self, spine_tree):
        oracle = ExactOracle(spine_tree)
        pieces = path_pieces(oracle, range(11), [0, 1, 2, 3, 4])
        assert pieces == self.PIECES

    def test_bent_tree_pieces(self, bent_tree):
        # The path from the root 8 down to 4 turns off the spine at 2, so 0,
        # 1 and their leaves join 2's piece.
        oracle = ExactOracle(bent_tree)
        pieces = path_pieces(oracle, range(11), [8, 2, 3, 4])
        assert pieces == [[8, 9], [2, 0, 1, 5, 6, 7], [3], [4, 10]]

    def test_pieces_keep_part_order_with_the_path_node_first(self, bent_tree):
        oracle = ExactOracle(bent_tree)
        part = [9, 6, 3, 1, 0, 7, 2, 8, 5]
        assert path_pieces(oracle, part, [8, 2, 3]) == [[8, 9], [2, 6, 1, 0, 7, 5], [3]]

    def test_one_node_path_asks_nothing(self, bent_tree):
        oracle = ExactOracle(bent_tree)
        assert path_pieces(oracle, [2, 0, 1, 3], [2]) == [[2, 0, 1, 3]]
        assert oracle.calls == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    def test_two_node_path_asks_its_lower_node_once_per_node(self, shape, n, seed, data):
        # A path p -> c has one split, at c: each node off it is asked
        # Q(c, k) once, in part order, which is what walking the one plan
        # for each node asks, and lands in the same piece.
        tree = _shaped(shape, n, seed)
        p = data.draw(st.sampled_from([v for v in range(tree.n) if tree.children[v]]))
        c = data.draw(st.sampled_from(tree.children[p]))
        rest = data.draw(st.permutations(subtree_nodes(tree, p)[1:]))
        part = [p, *rest]
        fast = _RecordingOracle(ExactOracle(tree))
        pieces = path_pieces(fast, part, [p, c])
        assert [(a, b) for a, b, _ in fast.transcript] == [(c, k) for k in rest if k != c]
        walk = _RecordingOracle(ExactOracle(tree))
        assert pieces == plan_walk_pieces(walk, part, [p, c])
        assert fast.transcript == walk.transcript
        _assert_pieces_match(tree, pieces, [p, c], part)


def _walk(plan, answer):
    """The positions a plan asks about, in order, when the true answer is
    ``answer``: a position reaches the node exactly when it is at most it."""
    at, hit, miss = plan
    asked = []
    while at > 0:
        asked.append(at)
        at = hit[at] if at <= answer else miss[at]
    assert ~at == answer
    return asked


def _midpoint_walk(k, answer):
    """The positions a ceiling-midpoint binary search over 0..k-1 asks."""
    lo, hi, asked = 0, k - 1, []
    while lo < hi:
        mid = (lo + hi + 1) // 2
        asked.append(mid)
        lo, hi = (mid, hi) if mid <= answer else (lo, mid - 1)
    return asked


class TestSearchPlan:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_unit_weights_ask_the_ceiling_midpoints(self, k):
        plan = search_plan([1] * k)
        for answer in range(k):
            assert _walk(plan, answer) == _midpoint_walk(k, answer)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=60))
    def test_every_answer_within_twice_its_weight_bound(self, weights):
        # Each answer is found, and one of weight w out of W asks at most
        # 2 ceil(log2(W / w)) queries, however skewed the weights are.
        plan = search_plan(weights)
        total = sum(weights)
        for answer, w in enumerate(weights):
            asked = _walk(plan, answer)
            assert len(asked) <= 2 * math.ceil(math.log2(total / w))
            assert len(set(asked)) == len(asked) and 0 not in asked

    def test_unit_plans_equal_the_recursive_split(self):
        for k in range(1, 201):
            assert search_plan([1] * k) == recursive_search_plan([1] * k)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=150),
            # Powers of two up to 2^40: one position can outweigh all others.
            st.lists(
                st.integers(min_value=0, max_value=40).map(lambda e: 2**e),
                min_size=1,
                max_size=150,
            ),
            # Mostly ones and a few heavy positions, as a round's pieces are.
            st.lists(st.sampled_from([1, 1, 1, 2, 10**6]), min_size=1, max_size=150),
        )
    )
    def test_weighted_plans_equal_the_recursive_split(self, weights):
        assert search_plan(weights) == recursive_search_plan(weights)

    def test_heavy_position_is_asked_about_first(self):
        # Position 5 holds most of the weight, so the first query tells
        # whether the answer is at or below it.
        plan = search_plan([1, 1, 1, 1, 1, 100, 1, 1])
        assert _walk(plan, 5) == [5, 6]
        assert _walk(plan, 0)[0] == 5


def _root_path(tree, i):
    return [*root_chain(tree, i), i]


def _assert_pieces_match(tree, pieces, path, part):
    truth = bag_nodes(tree, [path[0]], path)
    assert [p[0] for p in pieces] == path
    assert sorted(k for p in pieces for k in p) == sorted(part)
    for piece in pieces:
        assert {truth[k] for k in piece} == {piece[0]}


class TestWeightedPlacement:
    """path_pieces on parts large enough to be reweighed several times."""

    TREES = {
        "chain": lambda: shaped_tree("chain", 2000),
        "caterpillar": lambda: shaped_tree("caterpillar", 1000),
        "parallel_chain": lambda: parallel_chain(4, 150),
        "star": lambda: shaped_tree("star", 500),
        "random": lambda: random_tree(2000, 3, seed=12),
    }

    @pytest.mark.parametrize("shape", sorted(TREES))
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    @pytest.mark.parametrize("seed", range(3))
    def test_pieces_match_bag_indices(self, shape, order, seed):
        # Sorted labels hand the early searches nodes of one piece, so the
        # first reweighing misjudges the rest; shuffled ones are a fair
        # sample. Both must place every node exactly.
        tree = self.TREES[shape]()
        rng = random.Random(seed)
        part = list(range(tree.n))
        if order == "shuffled":
            rng.shuffle(part)
        root = tree.parent.index(ROOT)
        path = _root_path(tree, rng.choice([k for k in part if k != root]))
        oracle = ExactOracle(tree)
        _assert_pieces_match(tree, path_pieces(oracle, part, path), path, part)
        # A path from a node below the root, over that node's subtree.
        p, i = descent(tree, rng.randrange)
        part = subtree_nodes(tree, p)
        if order == "shuffled":
            rng.shuffle(part)
        path = skeleton_path(tree, p, i)[1]
        _assert_pieces_match(tree, path_pieces(oracle, part, path), path, part)

    @pytest.mark.parametrize("shape", sorted(TREES))
    @pytest.mark.parametrize("seed", range(3))
    def test_transcript_equals_a_plan_walk_per_node(self, shape, seed):
        # Paths of every length, reweighed or not, ask the same queries in
        # the same order and build the same pieces as walking a plan from
        # the recursive split for every node.
        tree = self.TREES[shape]()
        rng = random.Random(seed)
        for _ in range(3):
            p, i = descent(tree, rng.randrange)
            rest = subtree_nodes(tree, p)[1:]
            rng.shuffle(rest)
            part = [p, *rest]
            # A round that draws a node of an earlier path walks the path [p].
            for path in (skeleton_path(tree, p, i)[1], [p]):
                fast = _RecordingOracle(ExactOracle(tree))
                walk = _RecordingOracle(ExactOracle(tree))
                assert path_pieces(fast, part, path) == plan_walk_pieces(walk, part, path)
                assert fast.transcript == walk.transcript

    @pytest.mark.parametrize("seed", range(5))
    def test_first_placements_ask_what_plain_binary_search_asks(self, seed):
        # Until 16 nodes are placed the plan has unit weights, so the
        # transcript starts exactly as placing each node alone would.
        tree = random_tree(300, 3, seed=seed)
        part = list(range(tree.n))
        random.Random(seed).shuffle(part)
        path = _root_path(tree, max(range(tree.n), key=lambda v: len(root_chain(tree, v))))
        assert len(path) > 2
        weighted = _RecordingOracle(ExactOracle(tree))
        path_pieces(weighted, part, path)
        plain = _RecordingOracle(ExactOracle(tree))
        for k in [k for k in part if k not in path][:16]:
            _place(plain, path, k)
        assert weighted.transcript[: len(plain.transcript)] == plain.transcript

    @pytest.mark.parametrize("crowd", [64, 200, 1100])
    @pytest.mark.parametrize("length", [3, 40, 300])
    def test_one_placement_after_a_skewed_start_stays_logarithmic(self, crowd, length):
        # The path 0 -> 1 -> ... -> length-1; the first ``crowd`` nodes hang
        # from the root, so the plans weigh the root's position heavily, and
        # then one node hangs from the far end.
        last = length + crowd
        parent = [ROOT, *range(length - 1), *[0] * crowd, length - 1]
        tree = validate_tree(parent, crowd + 1)
        recorder = _RecordingOracle(ExactOracle(tree))
        pieces = path_pieces(recorder, range(tree.n), list(range(length)))
        assert pieces[-1] == [length - 1, last]
        asked = [q for q in recorder.transcript if q[1] == last]
        assert len(asked) <= 2 * math.ceil(math.log2(tree.n)) + 2


def test_every_bag_search_query_is_asked_inside_path_pieces(monkeypatch):
    # Tracers charge each query to the innermost phase function it is asked
    # in, by name. So each round's scan, the first round's too, which finds
    # the root, must ask its queries inside reconstruct_skeleton_path (its
    # sort inside sort_by_ancestry), and the round's placement inside one
    # path_pieces call, also once the plans are reweighed and in retries.
    # The driver itself asks only the settles of three-node pieces, right
    # after the gate that accepts them, the audit, after the last round,
    # and a 2-node node set's two orienting queries. Tracers count accepted
    # rounds as the non-None returns of find_even_separator, so every round
    # must consult it exactly once.
    tree = random_tree(600, 3, seed=4)
    inner = ExactOracle(tree)
    phases = ["outside"]
    asked = collections.Counter()
    calls = collections.Counter()
    seen = {"largest": 0, "scans": []}
    gates = []
    settles = []

    order = []

    # Every piece found so far, its path node first, each as path_pieces
    # returned it: a call splits the piece that is its part.
    known = [tuple(range(tree.n))]

    class Charging:
        def query(self, i, j):
            asked[phases[-1]] += 1
            order.append((phases[-1], (i, j)))
            return inner.query(i, j)

    def charged(name):
        real = getattr(reconstruct, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "sort_by_ancestry":
                assert phases[-1] == "reconstruct_skeleton_path"
            phases.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                phases.pop()

        monkeypatch.setattr(reconstruct, name, wrapper)
        return wrapper

    charged("sort_by_ancestry")
    scan, pieces_of = charged("reconstruct_skeleton_path"), charged("path_pieces")

    def reconstruct_skeleton_path(oracle_, nodes, i):
        before = asked["reconstruct_skeleton_path"]
        path = scan(oracle_, nodes, i)
        own = asked["reconstruct_skeleton_path"] - before
        seen["scans"].append((len(nodes), own == len(nodes) - 1))
        return path

    def path_pieces(oracle_, part, path):
        placements = len(part) - len(path)
        if len(path) > 2:
            seen["largest"] = max(seen["largest"], placements)
        pieces = pieces_of(oracle_, part, path)
        split = next(at for at, piece in enumerate(known) if set(piece) == set(part))
        known[split] = tuple(pieces[0])
        known.extend(map(tuple, pieces[1:]))
        return pieces

    real_find_even_separator = reconstruct.find_even_separator

    def find_even_separator(*args):
        gates.append(real_find_even_separator(*args))
        # An accepted round settles each of its part's three-node pieces
        # (q, a, b), a < b: Q(a, b), and Q(b, a) unless a is b's parent.
        settle = []
        if gates[-1] is not None:
            part = set(args[0])
            for q, a, b in [piece for piece in known if len(piece) == 3 and part >= set(piece)]:
                assert a < b
                known.remove((q, a, b))
                settles.append(1 if tree.parent[b] == a else 2)
                settle += [(a, b), (b, a)][: settles[-1]]
        order.append(("gate", settle))
        return gates[-1]

    monkeypatch.setattr(reconstruct, "reconstruct_skeleton_path", reconstruct_skeleton_path)
    monkeypatch.setattr(reconstruct, "path_pieces", path_pieces)
    monkeypatch.setattr(reconstruct, "find_even_separator", find_even_separator)
    with accepted_cuts() as accepted:
        edges, stats = reconstruct_tree(Charging(), tree.n, 3, random.Random(1))
    assert edges == set(tree.edges())
    assert calls["path_pieces"] == stats.rounds_total
    assert asked["path_pieces"] > 0
    # Each settle asks its 1 or 2 queries in the driver, in piece order,
    # right after the gate that accepts its piece and before the next round.
    assert set(settles) == {1, 2}
    phased, at = [], 0
    while at < len(order):
        phase, what = order[at]
        at += 1
        if phase == "gate":
            assert order[at : at + len(what)] == [("outside", pair) for pair in what]
            at += len(what)
        phased.append(phase)
    order = phased
    # Every other query the driver asks itself is the audit's, after the
    # last gate and its settles.
    audit = stats.audit_queries
    assert 0 < audit == asked["outside"] - sum(settles)
    assert order[-audit - 1 :] == ["gate", *["outside"] * audit]
    # A round whose node is on its part's known path scans nothing; every
    # other round scans once, the first over the whole node set.
    assert 0 < len(seen["scans"]) <= stats.rounds_total
    assert seen["scans"][0][0] == tree.n
    assert all(ok for _, ok in seen["scans"])
    assert asked["reconstruct_skeleton_path"] > 0 and asked["sort_by_ancestry"] > 0
    assert seen["largest"] > 128  # reweighed at least twice in one round
    assert len(gates) == stats.rounds_total > len(accepted)  # some rounds failed
    assert [sep for sep in gates if sep is not None] == [cut for cut, _ in accepted]


class TestReconstructTree:
    def test_recovers_both_fixtures(self, spine_tree, bent_tree):
        for tree in (spine_tree, bent_tree):
            oracle = ExactOracle(tree)
            with accepted_cuts() as cuts:
                edges, stats = reconstruct_tree(oracle, 11, 3, random.Random(5))
            assert edges == set(tree.edges())
            # Each accepted round keeps at least one new edge, so at most ten.
            assert 1 <= len(cuts) <= min(10, stats.rounds_total)
            assert stats.recursion_depth_max >= 2

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_fewer_than_two_nodes_need_nothing(self, n, weighted):
        recorder = _RecordingOracle(_ZeroOracle())
        if weighted:
            edges, weights, stats = reconstruct_weighted(recorder, n)
            assert weights == {}
        else:
            edges, stats = reconstruct_tree(recorder, n, 1, random.Random(0))
        assert edges == set()
        assert stats == reconstruct.ReconstructionStats()
        assert recorder.transcript == []

    def test_two_nodes_at_degree_one_are_settled_by_two_checks(self):
        # Bound 1 fits two nodes and never reaches a gate: asking both ways
        # orients the pair and settles the edge, and the audit asks nothing.
        oracle = ExactOracle(shaped_tree("chain", 2))
        edges, stats = reconstruct_tree(oracle, 2, 1, random.Random(0))
        assert edges == {(0, 1)}
        assert stats.rounds_total == 0
        assert oracle.calls == 2
        assert stats.recursion_depth_max == 1
        assert stats.audit_queries == 0

    @pytest.mark.parametrize(
        "n, bound, message",
        [
            (2, 0, "degree bound must be >= 1, got 0"),
            (2, -1, "degree bound must be >= 1, got -1"),
            (3, 1, "no tree on 3 nodes fits degree bound 1"),
            (3, 0, "degree bound must be >= 1, got 0"),
            (40, 1, "no tree on 40 nodes fits degree bound 1"),
        ],
    )
    def test_infeasible_degree_bound_raises_before_any_query(self, n, bound, message):
        # No balanced cut exists below d=2, so these rounds used to spin forever.
        oracle = ExactOracle(shaped_tree("chain", n))
        with pytest.raises(InvalidTreeError, match=message):
            reconstruct_tree(oracle, n, bound, random.Random(0))
        assert oracle.calls == 0

    @pytest.mark.parametrize("bound", ["float('nan')", "2.5", "float('inf')", "None"])
    def test_a_bound_that_is_not_an_int_raises_before_any_query(self, bound):
        # A NaN bound passed every comparison, so no cut met the gate and
        # the gate never doubled: the run spun forever. It runs in a child
        # process with a timeout, so that a regression fails and does not
        # hang the suite.
        script = (
            "import random\n"
            "from treeprobe import ExactOracle, InvalidTreeError, reconstruct_tree, shaped_tree\n"
            "oracle = ExactOracle(shaped_tree('chain', 6))\n"
            "try:\n"
            f"    reconstruct_tree(oracle, 6, {bound}, random.Random(0))\n"
            "except InvalidTreeError as err:\n"
            "    print(oracle.calls, err)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("0 degree bound must be an int, got ")

    @pytest.mark.parametrize("n", [-1, -7])
    @pytest.mark.parametrize("driver", [reconstruct_tree, reconstruct_weighted])
    def test_negative_node_count_raises_before_any_query(self, n, driver):
        # The count is checked before the bound, which no tree fits here.
        # Only reconstruct_tree takes a bound and an rng; both gates check
        # the count the same way.
        args = (0, random.Random(0)) if driver is reconstruct_tree else ()
        recorder = _RecordingOracle(_ZeroOracle())
        with pytest.raises(InvalidTreeError, match=f"node count must be >= 0, got {n}"):
            driver(recorder, n, *args)
        assert recorder.transcript == []

    @pytest.mark.parametrize("n", [2.5, None])
    @pytest.mark.parametrize("driver", [reconstruct_tree, reconstruct_weighted])
    def test_a_node_count_that_is_not_an_int_raises_before_any_query(self, n, driver):
        # Both raised TypeError, from range or from a comparison.
        args = (3, random.Random(0)) if driver is reconstruct_tree else ()
        recorder = _RecordingOracle(_ZeroOracle())
        with pytest.raises(InvalidTreeError, match=f"node count must be an int, got {n}"):
            driver(recorder, n, *args)
        assert recorder.transcript == []

    def test_forced_first_pair_yields_the_expected_cut(self, bent_tree):
        # The first round's path runs from the root 8 to the scripted 0, with
        # pieces of 3, 2, 4 and 2 nodes from 0 up; (2, 1) leaves 5 below it.
        # The whole node set is listed with its root first.
        oracle = ExactOracle(bent_tree)
        rng = ScriptedRng([0], seed=1)
        with accepted_cuts() as accepted:
            edges, _ = reconstruct_tree(oracle, 11, 3, rng)
        assert accepted[0] == ((2, 1), (8, 0, 1, 2, 3, 4, 5, 6, 7, 9, 10))
        assert edges == set(bent_tree.edges())

    def test_path_nodes_cost_no_bag_query(self, bent_tree):
        # The first round, on the scripted 0, is accepted. Its scan asks the
        # 10 other nodes, which finds 1, 2 and 8 above 0; sorting them asks
        # 2 and puts the root 8 first. No check follows: the bag searches
        # ask the next 14, two for each node off the path 8-2-1-0, and never
        # about the root 8.
        recorder = _RecordingOracle(ExactOracle(bent_tree))
        with _recording_gates(recorder) as gates:
            reconstruct_tree(recorder, 11, 3, ScriptedRng([0]))
        first_cut_at = next(at for at, cut in gates if cut is not None)
        assert recorder.transcript[7] == (8, 0, True)
        bag_queries = recorder.transcript[12:first_cut_at]
        assert len(bag_queries) == 14
        assert {k for _, k, _ in bag_queries} == {3, 4, 5, 6, 7, 9, 10}
        assert {a for a, _, _ in bag_queries} <= {2, 1, 0}

    def test_every_accepted_cut_is_a_true_edge(self, bent_tree):
        truth = set(bent_tree.edges())
        oracle = ExactOracle(bent_tree)
        with accepted_cuts() as accepted:
            reconstruct_tree(oracle, 11, 3, random.Random(3))
        seen = [cut for cut, _ in accepted]
        # One gating cut per accepted round, each a distinct true edge.
        assert seen
        assert len(set(seen)) == len(seen)
        assert all(sep in truth for sep in seen)

    def test_deterministic_given_seed_and_oracle(self, bent_tree):
        runs = []
        for _ in range(2):
            recorder = _RecordingOracle(ExactOracle(bent_tree))
            edges, _ = reconstruct_tree(recorder, 11, 3, random.Random(7))
            runs.append((edges, recorder.transcript))
        assert runs[0] == runs[1]

    def test_star_with_a_full_degree_hub(self):
        star = shaped_tree("star", 4)
        oracle = ExactOracle(star)
        edges, _ = reconstruct_tree(oracle, 4, 3, random.Random(2))
        assert edges == set(star.edges())

    def test_parallel_chains_worst_case_family(self):
        tree = parallel_chain(3, 4)
        oracle = ExactOracle(tree)
        edges, _ = reconstruct_tree(oracle, tree.n, 3, random.Random(11))
        assert edges == set(tree.edges())

    @settings(max_examples=80, deadline=None)
    @given(parent_array_trees(min_n=2, max_n=9))
    def test_recovers_random_trees(self, tree):
        oracle = ExactOracle(tree)
        edges, _ = reconstruct_tree(
            oracle, tree.n, tree.degree_bound, random.Random(1234)
        )
        assert edges == set(tree.edges())

    def test_lying_oracle_is_detected(self):
        with pytest.raises(InconsistentOracleError):
            reconstruct_tree(_ZeroOracle(), 3, 2, random.Random(0))

    def test_a_denied_edge_fails_the_run_with_its_counters(self):
        # Nothing reaches anything, so the first round takes its node for
        # the root and the next one's path to the other node it draws is
        # one unvouched edge, which the audit asks first and hears denied.
        with pytest.raises(InconsistentOracleError) as caught:
            reconstruct_tree(_ZeroOracle(), 3, 2, random.Random(0))
        stats = caught.value.stats
        assert (stats.rounds_total, stats.recursion_depth_max) == (2, 2)
        assert stats.audit_queries == 1

    def test_star_beyond_the_recursion_limit(self):
        # Each round on a star removes the leaf its path ends at, so the
        # parts nest about n deep.
        star = shaped_tree("star", 2100)
        edges, stats = reconstruct_tree(
            ExactOracle(star), star.n, star.degree_bound, random.Random(0)
        )
        assert edges == set(star.edges())
        assert stats.recursion_depth_max > sys.getrecursionlimit()

    def test_mutual_ancestry_cannot_loop_forever(self):
        # 0 and 1 each claim a path to the other; unchecked, the split would
        # swallow the whole part and recurse on it unchanged.
        liar = _TableOracle({(0, 1): 1, (1, 0): 1})
        with pytest.raises(InconsistentOracleError):
            reconstruct_tree(liar, 2, 2, random.Random(0))


def _relabelled(tree, seed):
    """The same shape under a seeded shuffle of its labels, so the root is
    not always node 0."""
    label = list(range(tree.n))
    random.Random(seed).shuffle(label)
    parent = [ROOT] * tree.n
    for v, p in enumerate(tree.parent):
        if p != ROOT:
            parent[label[v]] = label[p]
    return validate_tree(parent, tree.degree_bound)


class TestRootRounds:
    """What the driver asks in its first round, which finds the root, and in
    a round on a part whose root it knows."""

    SHAPES = ["chain", "star", "caterpillar", "random"]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_round_scan_finds_the_root(self, shape, seed):
        # The first round draws i from every node and asks each other node in
        # turn whether it reaches i. The sort asks only about the nodes that
        # do, which are the true ancestors of i, and puts the root first.
        # No check follows: the rest of the round is bag searches, each
        # asking a path node below the root about a node off the path, so
        # the round never asks i about the root or repeats a scan pair.
        tree = _relabelled(_shaped(shape, 30, seed), seed)
        n = tree.n
        root = tree.parent.index(ROOT)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            reconstruct_tree(recorder, n, tree.degree_bound, random.Random(seed))
        i = recorder.transcript[0][1]
        scan = recorder.transcript[: n - 1]
        assert [(a, b) for a, b, _ in scan] == [(k, i) for k in range(n) if k != i]
        above = {k for k, _, hit in scan if hit}
        assert above == set(root_chain(tree, i))
        rest = [(a, b) for a, b, _ in recorder.transcript[n - 1 : gates[0][0]]]
        sort = 0
        while sort < len(rest) and {*rest[sort]} <= above:
            sort += 1
        path = above | {i}
        assert all(a in path - {root} and b not in path for a, b in rest[sort:])
        assert not {(a, b) for a, b, _ in scan} & set(rest)

    def _root_first(self, shape, seed):
        """A run whose first draw is the root, with the transcript position
        and result of each gate."""
        tree = _relabelled(_shaped(shape, 30, seed), seed)
        root = tree.parent.index(ROOT)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            edges, stats = reconstruct_tree(
                recorder, tree.n, tree.degree_bound, ScriptedRng([root], seed=seed)
            )
        assert edges == set(tree.edges())
        return tree.n, root, recorder.transcript, gates, stats

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_draw_of_the_root_is_one_failed_round(self, shape, seed):
        # Nothing reaches the root, so the round asks its n - 1 scan queries
        # and nothing else, and its gate fails on a one-node path. Every
        # round consults the gate once. No later query repeats a pair of
        # that scan: a rooted round never draws its root, and the root is
        # never scanned or placed, so nothing is asked about it again.
        n, root, transcript, gates, stats = self._root_first(shape, seed)
        assert transcript[: n - 1] == [(k, root, 0) for k in range(n) if k != root]
        assert gates[0] == (n - 1, None)
        assert len(gates) == stats.rounds_total
        later = {(a, b) for a, b, _ in transcript[n - 1 :]}
        assert later and not later & {(k, root) for k in range(n)}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_round_asks_one_query_per_other_node_before_its_sort(self, shape, seed):
        # On an s-node part with root r and drawn node i, the round asks
        # first Q(k, i) once for each of the s - 2 other nodes, in part
        # order. The round after a first draw of the root runs on the whole
        # node set, listed root first, then ascending.
        s, root, transcript, _, _ = self._root_first(shape, seed)
        i = transcript[s - 1][1]
        round_start = transcript[s - 1 : s - 1 + (s - 2)]
        assert [(a, b) for a, b, _ in round_start] == [
            (k, i) for k in range(s) if k not in (root, i)
        ]

    @pytest.mark.parametrize("first, rounds", [(0, 2), (1, 1), (2, 1)])
    def test_drawing_the_root_first_costs_one_round(self, first, rounds):
        # On the chain 0 -> 1 -> 2 any path with an edge is accepted, so the
        # run takes one round, and one more when the first draw is the root.
        oracle = ExactOracle(shaped_tree("chain", 3))
        edges, stats = reconstruct_tree(oracle, 3, 2, ScriptedRng([first]))
        assert edges == {(0, 1), (1, 2)}
        assert stats.rounds_total == rounds

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_first_scan_asks_every_other_node_on_every_shape(self, shape, n, seed):
        tree = _relabelled(_shaped(shape, n, seed), seed)
        recorder = _RecordingOracle(ExactOracle(tree))
        paths = []
        real_scan = reconstruct.reconstruct_skeleton_path

        def reconstruct_skeleton_path(*args, **kwargs):
            paths.append(real_scan(*args, **kwargs))
            return paths[-1]

        scanning = mock.patch.object(
            reconstruct, "reconstruct_skeleton_path", reconstruct_skeleton_path
        )
        with scanning:
            edges, _ = reconstruct_tree(
                recorder, tree.n, tree.degree_bound, random.Random(seed)
            )
        i = recorder.transcript[0][1]
        scan = [(a, b) for a, b, _ in recorder.transcript[: tree.n - 1]]
        assert scan == [(k, i) for k in range(tree.n) if k != i]
        assert paths[0] == _root_path(tree, i)
        assert edges == set(tree.edges())

    @pytest.mark.parametrize("parent", [(-1, 0), (1, -1)])
    def test_two_node_set_asks_both_ways_and_draws_nothing(self, parent):
        tree = validate_tree(parent, 1)
        root, x = (0, 1) if parent[0] == ROOT else (1, 0)
        recorder = _RecordingOracle(ExactOracle(tree))
        rng = random.Random(3)
        state = rng.getstate()
        edges, stats = reconstruct_tree(recorder, 2, 2, rng)
        assert edges == {(root, x)}
        # The two queries orient the pair, and one of them is the edge's.
        assert [(a, b) for a, b, _ in recorder.transcript] == [(1, 0), (0, 1)]
        assert rng.getstate() == state
        assert stats.rounds_total == 0 and stats.audit_queries == 0

    @pytest.mark.parametrize("table", [{}, {(0, 1): 1, (1, 0): 1}])
    def test_two_node_set_needs_exactly_one_yes(self, table):
        with pytest.raises(InconsistentOracleError) as caught:
            reconstruct_tree(_TableOracle(table), 2, 1, random.Random(0))
        assert caught.value.stats.rounds_total == 0
        # The pair is oriented before the driver loop, at the whole node
        # set's level 1.
        assert caught.value.stats.recursion_depth_max == 1

    def test_two_node_part_of_a_placed_piece_asks_nothing(self):
        # 0 -> 1 -> 2 with 3 below 1. The path to the scripted 2 places 3 by
        # asking Q(1, 3) = 1, then Q(2, 3) = 0, and is accepted at bound 3:
        # the 2-node part 1, 3 is vouched by that yes and costs nothing.
        tree = validate_tree((ROOT, 0, 1, 1), 3)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            edges, stats = reconstruct_tree(recorder, 4, 3, ScriptedRng([2]))
        assert edges == set(tree.edges())
        assert recorder.transcript[-2:] == [(1, 3, True), (2, 3, False)]
        assert gates == [(len(recorder.transcript), (0, 1))]
        assert stats.audit_queries == 0

    def test_two_node_part_of_the_root_piece_is_audited(self):
        # 0 -> 1 -> 3 with 2 below 0. The path to the scripted 3 places 2 in
        # the root's piece, which no answer vouches for, so the audit asks
        # the edge of the 2-node part 0, 2 once, after the only gate.
        tree = validate_tree((ROOT, 0, 0, 1), 2)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            edges, stats = reconstruct_tree(recorder, 4, 2, ScriptedRng([3]))
        assert edges == set(tree.edges())
        assert gates == [(len(recorder.transcript) - 1, (0, 1))]
        assert recorder.transcript[-1] == (0, 2, True)
        assert [(a, b) for a, b, _ in recorder.transcript].count((0, 2)) == 1
        assert stats.audit_queries == 1


class TestThreeNodePieces:
    """An accepted round settles each three-node piece [q, a, b] where it
    finds it, with no round and no draw: Q(a, b), then Q(b, a) on a no.

    The tree hangs q from the root and the sampled node i and the piece's
    other two nodes from q, so the one round, on the path root -> q -> i,
    leaves the piece q, a, b. The part has 5 nodes, and at bound 4 any
    edge passes the gate. The root's only edge is the path's first, which
    the scan vouches for, so no audit follows the settle.
    """

    # Ids of (root, q, i, lo, hi) under two labelings: lo < hi are the
    # piece's other nodes, so a = lo and b = hi in part order.
    LABELINGS = {"ascending": (0, 1, 4, 2, 3), "descending": (4, 3, 0, 1, 2)}

    @pytest.mark.parametrize("labeling", sorted(LABELINGS))
    @pytest.mark.parametrize("shape", ["chain a -> b", "chain b -> a", "cherry"])
    def test_a_three_node_piece_is_settled_by_one_or_two_queries(self, shape, labeling):
        root, q, i, a, b = self.LABELINGS[labeling]
        edges = {(root, q), (q, i)}
        if shape == "chain a -> b":
            edges |= {(q, a), (a, b)}
            settle = [(a, b)]
        elif shape == "chain b -> a":
            edges |= {(q, b), (b, a)}
            settle = [(a, b), (b, a)]
        else:
            edges |= {(q, a), (q, b)}
            settle = [(a, b), (b, a)]
        parent = [ROOT] * 5
        for p, c in edges:
            parent[c] = p
        tree = validate_tree(parent, 4)
        recorder = _RecordingOracle(ExactOracle(tree))
        drawn_from = []

        class Recording(ScriptedRng):
            def choice(self, population):
                drawn_from.append(list(population))
                return super().choice(population)

        with _recording_gates(recorder) as gates:
            found, stats = reconstruct_tree(recorder, 5, 4, Recording([i]))
        assert found == edges == set(tree.edges())
        # The whole node set's round is the only round and the only draw.
        assert drawn_from == [list(range(5))]
        assert stats.rounds_total == 1 and stats.audit_queries == 0
        assert [cut for _, cut in gates] == [(root, q)]
        # Everything after the gate is the settle's.
        pairs = [(x, y) for x, y, _ in recorder.transcript]
        assert pairs[gates[0][0] :] == settle

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    def test_every_later_part_has_four_or_more_nodes(self, shape, n, seed, data):
        # Only the whole node set, which may have three nodes, runs its
        # rounds on fewer than four; every later round is on a pushed piece
        # of four or more. Below the true bound too.
        tree = _shaped(shape, n, seed)
        bound = data.draw(st.integers(min_value=2, max_value=max(2, tree.degree_bound)))
        sizes = []
        gate = reconstruct.find_even_separator

        def recording(part, side, cut, degree_bound):
            sizes.append(len(part))
            return gate(part, side, cut, degree_bound)

        oracle = _CappedOracle(ExactOracle(tree), _query_cap(tree.n))
        with mock.patch.object(reconstruct, "find_even_separator", recording):
            edges, stats = reconstruct_tree(oracle, tree.n, bound, random.Random(seed))
        assert edges == set(tree.edges())
        assert len(sizes) == stats.rounds_total
        whole = sizes.count(tree.n)
        assert whole >= 1 and sizes[:whole] == [tree.n] * whole
        assert all(4 <= size < tree.n for size in sizes[whole:])


class TestRetries:
    """A failed round's pieces and path edges carry over to the part's next
    round, which splits only the piece that holds its node.

    The tree hangs 1 -> 3, 2 and the leaf 12 from the root 0, and the binary
    subtree 2 -> 4, 5; 4 -> 6, 7; 5 -> 8, 9; 6 -> 10, 11 below 2. At bound 3
    a cut must leave at least 4 of the 13 nodes below it, so the path
    0 -> 1 -> 3, whose pieces from 3 up hold 1, 1 and 11 nodes, fails.
    """

    PARENT = (ROOT, 0, 0, 1, 2, 2, 4, 4, 5, 5, 6, 6, 0)

    def _run(self, script):
        tree = validate_tree(self.PARENT, 3)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            edges, stats = reconstruct_tree(recorder, tree.n, 3, ScriptedRng(script))
        assert edges == set(tree.edges())
        pairs = [(a, b) for a, b, _ in recorder.transcript]
        return pairs, [at for at, _ in gates], [cut for _, cut in gates], stats

    def test_retry_asks_only_inside_the_piece_of_its_node(self):
        # The retry draws 6, which lies in the root's piece: every node but
        # the branch 1 -> 3 that the failed round found. It scans that piece
        # alone, without its root, and asks nothing about the root 0 or the
        # branch. Its best cut is (2, 4), with 5 nodes below it.
        pairs, at, cuts, _ = self._run([3, 6])
        assert cuts[:2] == [None, (2, 4)]
        retry = pairs[at[0] : at[1]]
        piece = set(range(13)) - {1, 3}
        assert retry[:9] == [(k, 6) for k in sorted(piece - {0, 6})]
        assert all(a in piece - {0} and b in piece - {0} for a, b in retry)

    def test_retry_on_the_known_path_asks_nothing(self):
        # 1 lies on the known path 0 -> 1 -> 3, so the retry's path is 0 -> 1
        # and its pieces follow from the last round's: it fails again unasked
        # and leaves the part as it found it, so the run goes on exactly as
        # one that never drew 1.
        pairs, at, cuts, stats = self._run([3, 1, 6])
        assert at[0] == at[1] and cuts[:2] == [None, None]
        assert (pairs, at[1:], cuts[1:]) == self._run([3, 6])[:3]
        assert stats.rounds_total == len(at)

    def test_retry_that_draws_a_path_node_asks_nothing(self):
        # 0 -> 1 -> 2, with the other ten nodes below 1, fails at bound 3:
        # its pieces hold 1, 11 and 1 nodes. The retry draws 1, a path node
        # whose piece holds ten more nodes, and knows its path 0 -> 1
        # already: it asks nothing and fails again. The part keeps the path
        # 0 -> 1 -> 2, so the next round, on 5 in 1's piece, never asks
        # about 2.
        tree = validate_tree((ROOT, 0, 1, 1, 1, 3, 3, 4, 4, 5, 5, 6, 6), 4)
        recorder = _RecordingOracle(ExactOracle(tree))
        with _recording_gates(recorder) as gates:
            edges, _ = reconstruct_tree(recorder, tree.n, 3, ScriptedRng([2, 1, 5]))
        assert edges == set(tree.edges())
        (first, miss), (retry, again), (third, cut) = gates[:3]
        assert miss is None and again is None and cut == (1, 3)
        assert first == retry < third
        assert all(2 not in pair[:2] for pair in recorder.transcript[retry:third])

    def test_accepted_retry_keeps_its_failed_rounds_branch(self):
        # The failed round's pieces 1 and 3 and its edges (0, 1) and (1, 3)
        # stay as they were found, so once it has failed no query asks
        # about 1 or 3. The accepted retry leaves the root's piece 0, 12, a
        # two-node piece that no answer vouches for, the three-node piece
        # 6, 10, 11, a cherry settled at once by asking both ways, and the
        # piece of 2, which takes one round. Then the audit asks the root's
        # edges to 2 and 12, once each.
        pairs, at, cuts, stats = self._run([3, 6, 8])
        assert cuts == [None, (2, 4), (2, 5)]
        assert stats.rounds_total == 3
        assert pairs[at[1] : at[1] + 2] == [(10, 11), (11, 10)]
        assert not {1, 3} & {k for pair in pairs[at[0] :] for k in pair}
        assert pairs[-2:] == [(0, 2), (0, 12)]
        assert pairs.count((0, 12)) == 1
        assert stats.audit_queries == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    def test_pieces_keep_their_order_on_every_shape(self, shape, n, seed, data):
        # At the true bound and below it: every round draws from its part in
        # ascending order, the root of a known part left out, and every part
        # that reaches an accepted round, the whole node set too, has its
        # root as the path node of its first piece.
        tree = _shaped(shape, n, seed)
        bound = data.draw(st.integers(min_value=2, max_value=max(2, tree.degree_bound)))
        drawn_from = []

        class Recording(random.Random):
            def choice(self, population):
                drawn_from.append(list(population))
                return super().choice(population)

        oracle = _CappedOracle(ExactOracle(tree), _query_cap(tree.n))
        with accepted_cuts() as cuts:
            edges, stats = reconstruct_tree(oracle, tree.n, bound, Recording(seed))
        assert edges == set(tree.edges())
        assert len(drawn_from) == stats.rounds_total
        assert all(others == sorted(others) for others in drawn_from)
        for _, part in cuts:
            assert list(part[1:]) == sorted(part[1:])
            assert all(part[0] in root_chain(tree, k) for k in part[1:])


class TestAudit:
    """Every returned edge is vouched for by an answer the run heard before
    its audit, Q(p, c) truthy or Q(c, p) falsy, or asked by the audit."""

    ORACLES = {
        "exact": ExactOracle,
        "weighted": lambda tree: AdditiveOracle(uniform_weights(tree, seed=3)),
        "noisy": lambda tree: NoisyOracle(tree, 0.0, seed=3, votes=1),
    }

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
        st.sampled_from(["true", "one below", "two"]),
        st.sampled_from(sorted(ORACLES)),
    )
    def test_the_transcript_vouches_for_every_edge(
        self, shape, n, seed, relabel, bound, regime
    ):
        tree = _shaped(shape, n, seed)
        if relabel:
            tree = _relabelled(tree, seed)
        d = tree.degree_bound
        bound = {"true": d, "one below": max(2, d - 1), "two": 2}[bound]
        recorder = _RecordingOracle(self.ORACLES[regime](tree))
        if regime == "weighted":
            edges, weights, stats = reconstruct_weighted(recorder, tree.n)
        else:
            edges, stats = reconstruct_tree(recorder, tree.n, bound, random.Random(seed))
        assert edges == set(tree.edges())
        # The audit's queries end the run. The weighted run's audit reads
        # each edge out of the root once more, and each weight it returns is
        # also a yes it heard on that edge before the audit.
        end = len(recorder.transcript)
        if regime == "weighted":
            assert stats.audit_queries == len(tree.children[tree.root])
            before = recorder.transcript[: end - stats.audit_queries]
            heard = {(a, b): answer for a, b, answer in before if answer}
            assert {e: heard.get(e) for e in weights} == weights
        audit = [(a, b) for a, b, _ in recorder.transcript[end - stats.audit_queries :]]
        assert len(set(audit)) == len(audit) and set(audit) <= edges
        heard = recorder.transcript[: end - stats.audit_queries]
        yes = {(a, b) for a, b, bit in heard if bit}
        no = {(a, b) for a, b, bit in heard if not bit}
        for p, c in edges - set(audit):
            assert (p, c) in yes or (c, p) in no

    @pytest.mark.parametrize("n", [3, 4, 17, 60, 300])
    @pytest.mark.parametrize("bound", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_a_chain_audits_only_after_drawing_its_root_first(self, n, bound, seed):
        # Every piece of a chain but the root's is vouched, and the root's
        # holds the root alone, unless the first round drew the root: then
        # the next round's first edge is the one edge the audit asks.
        chain = shaped_tree("chain", n)
        first = random.Random(seed).choice(range(n))
        edges, stats = reconstruct_tree(ExactOracle(chain), n, bound, random.Random(seed))
        assert edges == set(chain.edges())
        assert stats.audit_queries == (first == 0)

    @pytest.mark.parametrize("n", [3, 4, 17, 60, 300])
    @pytest.mark.parametrize("bound", ["true", "two"])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_star_audits_at_most_one_query_per_leaf(self, n, bound, seed):
        star = shaped_tree("star", n)
        d = star.degree_bound if bound == "true" else 2
        edges, stats = reconstruct_tree(ExactOracle(star), n, d, random.Random(seed))
        assert edges == set(star.edges())
        assert 0 < stats.audit_queries <= n - 1


    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
        st.sampled_from(["true", "two"]),
    )
    def test_the_audit_asks_only_unheard_edges_out_of_the_root(
        self, shape, n, seed, relabel, bound
    ):
        # Every piece's path node was heard to reach each of its members,
        # except in the pieces of the run's root, as no placement asks a
        # part's root. So every edge the audit asks leaves the root, and no
        # query before the audit asked it.
        tree = _shaped(shape, n, seed)
        if relabel:
            tree = _relabelled(tree, seed)
        bound = tree.degree_bound if bound == "true" else 2
        recorder = _RecordingOracle(ExactOracle(tree))
        edges, stats = reconstruct_tree(recorder, tree.n, bound, random.Random(seed))
        assert edges == set(tree.edges())
        end = len(recorder.transcript) - stats.audit_queries
        audit = [(a, b) for a, b, _ in recorder.transcript[end:]]
        heard = {(a, b) for a, b, _ in recorder.transcript[:end]}
        assert all(a == tree.root for a, _ in audit)
        assert not heard & set(audit)

    TREES = {
        "random-d3": lambda seed: random_tree(150, 3, seed=seed),
        "random-d5": lambda seed: random_tree(100, 5, seed=seed),
        **{
            shape: lambda seed, shape=shape: _shaped(shape, 60, seed)
            for shape in ("star", "chain", "caterpillar", "parallel_chain")
        },
    }
    AUDITED_ORACLES = {
        "exact": lambda tree, seed: ExactOracle(tree),
        "noisy": lambda tree, seed: NoisyOracle(tree, 0.1, seed=seed, votes=5),
        "liar": lambda tree, seed: _FlippingOracle(ExactOracle(tree), 0.01, seed),
    }

    @pytest.mark.parametrize("shape", sorted(TREES))
    @pytest.mark.parametrize("bound", ["true", "two"])
    @pytest.mark.parametrize("regime", sorted(AUDITED_ORACLES))
    def test_the_audit_asks_each_root_edge_but_the_first_scans_in_order(
        self, monkeypatch, shape, bound, regime
    ):
        # The first round's scan hears the root reach the first node of its
        # path, if that path has two nodes or more. The audit asks every
        # other returned edge out of the root once, in ascending order of
        # the child, and stops at the first denial.
        scans = []
        real_scan = reconstruct.reconstruct_skeleton_path

        def scan(*args):
            scans.append(real_scan(*args))
            return scans[-1]

        monkeypatch.setattr(reconstruct, "reconstruct_skeleton_path", scan)
        for seed in range(10):
            tree = self.TREES[shape](seed)
            if seed % 2:
                tree = _relabelled(tree, seed)
            d = tree.degree_bound if bound == "true" else 2
            recorder = _RecordingOracle(self.AUDITED_ORACLES[regime](tree, seed))
            scans.clear()
            try:
                edges, stats = reconstruct_tree(recorder, tree.n, d, random.Random(seed))
                raised = False
            except InconsistentOracleError as err:
                edges, stats, raised = None, err.stats, True
            first = scans[0]
            end = len(recorder.transcript) - stats.audit_queries
            audit = [(a, b) for a, b, _ in recorder.transcript[end:]]
            if raised:
                # On three or more nodes only the audit raises, at its last
                # query. The same answers up to the audit, and a yes to each
                # audit query, return the edges the run had built.
                assert audit and not recorder.transcript[-1][2]
                replay = _ReplayOracle([bit for _, _, bit in recorder.transcript[:end]])
                edges, _ = reconstruct_tree(replay, tree.n, d, random.Random(seed))
            elif regime == "exact":
                assert edges == set(tree.edges())
            root = first[0]
            expected = [(root, c) for c in sorted(c for a, c in edges if a == root)]
            if len(first) > 1:
                expected.remove((root, first[1]))
            assert audit == (expected[: len(audit)] if raised else expected)


class TestNoRepeatedQuery:
    """A failed round's pieces and edges stay, and a retry asks only inside
    the piece that holds its node, so no round asks again what an earlier
    one heard. The only pairs an exact run asks twice are pairs that one
    ``sorted`` call compares twice."""

    SHAPES = [("random", 3), ("random", 5), ("random", 10)] + [
        (shape, None) for shape in ("star", "chain", "caterpillar", "parallel_chain")
    ]

    @pytest.mark.parametrize("shape, d", SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_no_pair_is_asked_twice_outside_one_sort(self, monkeypatch, shape, d, seed):
        if shape == "random":
            tree = random_tree(400, d, seed=seed)
        else:
            tree = _shaped(shape, 400, seed)
        if seed % 2:
            tree = _relabelled(tree, seed)
        # The sort call each query is asked in, None outside every sort.
        inside = [None]
        sorts = itertools.count()
        real_sort = reconstruct.sort_by_ancestry

        def sort_by_ancestry(oracle, items):
            inside[0] = next(sorts)
            try:
                return real_sort(oracle, items)
            finally:
                inside[0] = None

        inner = ExactOracle(tree)
        first = {}

        class Tagging:
            def query(self, i, j):
                if (i, j) in first:
                    assert inside[0] is not None and first[i, j] == inside[0], (i, j)
                else:
                    first[i, j] = inside[0]
                return inner.query(i, j)

        monkeypatch.setattr(reconstruct, "sort_by_ancestry", sort_by_ancestry)
        edges, _ = reconstruct_tree(Tagging(), tree.n, tree.degree_bound, random.Random(seed))
        assert edges == set(tree.edges())


def _sibling_leaf_pairs(tree):
    """Every ordered pair of distinct leaves with the same parent."""
    leaves = collections.defaultdict(list)
    for v, p in enumerate(tree.parent):
        if p != ROOT and not tree.children[v]:
            leaves[p].append(v)
    return {(a, b) for kin in leaves.values() for a in kin for b in kin if a != b}


class TestQueryFloor:
    """Moving leaf b under its sibling leaf a keeps the degree bound (at
    least 2) and changes only Q(a, b), so a run that is always right asks
    every ordered pair of sibling leaves. Stars sit near this floor."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_a_random_tree_run_asks_every_sibling_leaf_pair(self, d):
        for n, seed in itertools.product((3, 5, 8, 13, 30, 70, 150), range(20)):
            self._check(random_tree(n, d, seed=seed), d, seed)

    @pytest.mark.parametrize("shape", ["star", "chain", "caterpillar", "balanced", "parallel_chain"])
    def test_a_shaped_run_asks_every_sibling_leaf_pair(self, shape):
        for n, seed in itertools.product((3, 4, 5, 8, 13, 30, 70, 150), range(10)):
            tree = _shaped(shape, n, seed)
            self._check(_relabelled(tree, seed), tree.degree_bound, seed)

    @staticmethod
    def _check(tree, bound, seed):
        recorder = _RecordingOracle(ExactOracle(tree))
        edges, _ = reconstruct_tree(recorder, tree.n, bound, random.Random(seed))
        assert edges == set(tree.edges())
        asked = {(i, j) for i, j, _ in recorder.transcript}
        missing = _sibling_leaf_pairs(tree) - asked
        assert not missing, (tree.parent, seed, sorted(missing))


def _run_exact(tree, bound):
    oracle = _RecordingOracle(ExactOracle(tree))
    edges, stats = reconstruct_tree(oracle, tree.n, bound, random.Random(0))
    return oracle, edges, stats


def _run_noisy(tree, bound):
    oracle = _RecordingOracle(NoisyOracle(tree, 0.1, seed=1, votes=55))
    edges, stats = reconstruct_tree(oracle, tree.n, bound, random.Random(0))
    return oracle, edges, stats


def _run_weighted(tree, bound):
    # The weighted driver reads no bound.
    oracle = _RecordingOracle(AdditiveOracle(uniform_weights(tree, seed=9)))
    edges, _, stats = reconstruct_weighted(oracle, tree.n)
    return oracle, edges, stats


# sha256 of repr() of each stream's ordered list of (i, j) pairs.
TRANSCRIPTS = {
    "random-d3": "11411370fb4a235118483e47059f1c30a92d2ed78d4a4cf6451db14dad31b906",
    "random-d10": "b08953e162e11b9df7c761d1302122663b5fbe215a24455c80f1b7852beeb7a0",
    "parallel-chain": "738a98bfed103cd393b34a212f30735e4e9097c89ed55b11f743790ec04cb87f",
    "star-doubling": "4203fc5f89e977f434703f046e2c6fc7724ae87d01dc7dcd55ccf4e935eda49f",
    "wrong-bound": "7a9f4aeaf9df95318f2a981bd3a4736e0e08c912ef59c1af3d40e6fb93729983",
    "noisy": "5d34c2bc64998fc174a3156267501034e35e6496150d0223de07d29a57c624b7",
    "weighted": "7590bacb69dac9735f30a68ebe41ee219403e8c53960daefc40504e65c1dda8f",
    "relabelled-n3": "41e900f87b6be6200414eb2c8d3a68da0597838e77476c6c69ea54719a7bd79e",
    "relabelled-n5": "f689bae74f80dd0338770cc50c5d019200268616339325c62d908fe0e575db67",
    "relabelled-n8": "2ea6b82b16164f1f291d35ac34d246fd001ec880dd16064dc41e2d1cf2de0415",
    "two-node-forward": "6d44e6b042522da41ca61db3695729778e687aa344a630cadb567b159a196e63",
    "two-node-backward": "6d44e6b042522da41ca61db3695729778e687aa344a630cadb567b159a196e63",
    "audited-two-node-piece": "bf7a1a2a311f3e97c0eed4e4c6d72571b308fa855157b1774a6247ea2c0ca5f9",
}


@pytest.mark.parametrize(
    "run, tree, bound, calls, rounds, depth",
    [
        pytest.param(_run_exact, random_tree(300, 3, seed=5), 3, 3329, 78, 7, id="random-d3"),
        pytest.param(_run_exact, random_tree(300, 10, seed=6), 10, 3714, 76, 11, id="random-d10"),
        pytest.param(_run_exact, parallel_chain(4, 30), 4, 1244, 13, 8, id="parallel-chain"),
        pytest.param(_run_exact, shaped_tree("star", 40), 2, 1521, 274, 2, id="star-doubling"),
        pytest.param(_run_exact, random_tree(200, 5, seed=3), 3, 2172, 71, 9, id="wrong-bound"),
        pytest.param(_run_noisy, random_tree(120, 3, seed=7), 3, 1046, 35, 5, id="noisy"),
        pytest.param(_run_weighted, random_tree(300, 3, seed=5), 3, 3086, 0, 1, id="weighted"),
        # Small parts, where most two-node pieces are settled as they are found.
        pytest.param(
            _run_exact, _relabelled(random_tree(3, 3, seed=3), 3), 3, 6, 2, 2, id="relabelled-n3"
        ),
        pytest.param(
            _run_exact, _relabelled(random_tree(5, 3, seed=5), 5), 3, 9, 1, 2, id="relabelled-n5"
        ),
        pytest.param(
            _run_exact, _relabelled(random_tree(8, 3, seed=8), 8), 3, 20, 1, 2, id="relabelled-n8"
        ),
        pytest.param(_run_exact, validate_tree((ROOT, 0), 1), 1, 2, 0, 1, id="two-node-forward"),
        pytest.param(_run_exact, validate_tree((1, ROOT), 1), 1, 2, 0, 1, id="two-node-backward"),
        # Its audit asks two edges out of the root 42 in ascending order:
        # (42, 17), found by a later round's path, then (42, 28), settled
        # as the two-node piece 42, 28.
        pytest.param(
            _run_exact,
            _relabelled(random_tree(44, 3, seed=1), 1),
            3,
            311,
            9,
            4,
            id="audited-two-node-piece",
        ),
    ],
)
def test_query_stream_is_pinned(request, run, tree, bound, calls, rounds, depth):
    # Query, round and depth counts and the ordered pairs asked are a pure
    # function of the seeds, so any change to the order of rng draws or
    # oracle queries shows here.
    oracle, edges, stats = run(tree, bound)
    assert edges == set(tree.edges())
    pairs = [(i, j) for i, j, _ in oracle.transcript]
    assert (len(pairs), stats.rounds_total, stats.recursion_depth_max) == (calls, rounds, depth)
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == TRANSCRIPTS[request.node.callspec.id]


def test_a_wrong_bound_doubles_once_for_the_run(monkeypatch):
    # The tree behind the wrong-bound pin. Once a part's failures double
    # the gate's bound, every later part starts from the doubled bound, so
    # no sibling part climbs the ladder again from 3.
    tree = random_tree(200, 5, seed=3)
    bounds = []
    gate = reconstruct.find_even_separator

    def recording(part, side, cut, degree_bound):
        bounds.append(degree_bound)
        return gate(part, side, cut, degree_bound)

    monkeypatch.setattr(reconstruct, "find_even_separator", recording)
    edges, _ = reconstruct_tree(ExactOracle(tree), tree.n, 3, random.Random(0))
    assert edges == set(tree.edges())
    assert [bound for bound, _ in itertools.groupby(bounds)] == [3, 6]


def test_a_seeded_liar_fails_with_pinned_counters():
    # A 1% liar on a random tree fails at the audit. The counters it carries
    # are a pure function of the seeds, the deepest split level included.
    tree = random_tree(200, 3, seed=0)
    liar = _FlippingOracle(ExactOracle(tree), 0.01, seed=5)
    with pytest.raises(InconsistentOracleError, match=r"\(26, 22\)") as caught:
        reconstruct_tree(liar, 200, 3, random.Random(0))
    stats = caught.value.stats
    counts = (stats.rounds_total, stats.recursion_depth_max, stats.audit_queries)
    assert (liar.calls, *counts) == (2218, 64, 8, 1)


def test_a_seeded_liar_can_pass_the_audit():
    # An edge that a lie vouches for is never asked again: the audit asks
    # only the edges out of the root that no answer vouches for.
    # This liar's run returns 199 edges, 84 of them wrong, and its counters
    # are a pure function of the seeds.
    tree = random_tree(200, 3, seed=0)
    liar = _FlippingOracle(ExactOracle(tree), 0.01, seed=0)
    edges, stats = reconstruct_tree(liar, 200, 3, random.Random(0))
    assert (len(edges), len(edges - set(tree.edges()))) == (199, 84)
    counts = (stats.rounds_total, stats.recursion_depth_max, stats.audit_queries)
    assert (liar.calls, *counts) == (2965, 55, 7, 4)


def test_seeded_liars_are_caught_no_less_often():
    # 120 runs of a 1% liar at the true bound: 14 raise, and every other
    # run returns a wrong edge set. A check that catches more lies raises
    # on more of them; none may raise on fewer.
    caught = 0
    for n, d in ((200, 3), (100, 5), (300, 3)):
        for seed in range(40):
            tree = random_tree(n, d, seed=seed)
            liar = _FlippingOracle(ExactOracle(tree), 0.01, seed)
            try:
                reconstruct_tree(liar, n, tree.degree_bound, random.Random(seed))
            except InconsistentOracleError:
                caught += 1
    assert caught >= 14


class TestEveryInputTerminates:
    """A wrong degree bound or a lying oracle still ends within a query cap."""

    def test_star_under_a_wrong_bound(self):
        star = shaped_tree("star", 5)
        oracle = _CappedOracle(ExactOracle(star), _query_cap(5))
        edges, _ = reconstruct_tree(oracle, 5, 2, random.Random(0))
        assert edges == set(star.edges())

    @pytest.mark.parametrize("seed", range(10))
    def test_pieces_keep_their_parts_bound(self, seed):
        # Restarting every piece at bound 2 costs about 4 n^3 queries here.
        star = shaped_tree("star", 100)
        oracle = _CappedOracle(ExactOracle(star), 100**3)
        edges, _ = reconstruct_tree(oracle, 100, 2, random.Random(seed))
        assert edges == set(star.edges())

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_bound_two_recovers_every_shape(self, shape, n, seed):
        tree = _shaped(shape, n, seed)
        oracle = _CappedOracle(ExactOracle(tree), _query_cap(tree.n))
        edges, _ = reconstruct_tree(oracle, tree.n, 2, random.Random(seed))
        assert edges == set(tree.edges())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    def test_random_liar_returns_or_raises(self, n, bound, seed, additive):
        # In the additive regime the coin flips are depths too, so its
        # depth-ordered insertion meets made-up and tied depths.
        oracle = _CappedOracle(_RandomLiar(seed), _query_cap(n))
        try:
            if additive:
                edges, _, _ = reconstruct_weighted(oracle, n)
            else:
                edges, _ = reconstruct_tree(oracle, n, bound, random.Random(seed))
        except InconsistentOracleError:
            return
        # The pieces of every accepted round partition its part, and each
        # inserted node gets one parent, so even made-up answers yield n - 1
        # distinct pairs.
        assert len(edges) == n - 1


class TestReconstructNoisy:
    """The driver over a voting ``NoisyOracle``, the oracle ``run_single`` uses."""

    def test_zero_noise_single_vote_is_exact(self):
        tree = random_tree(15, 3, seed=21)
        voter = NoisyOracle(tree, 0.0, seed=0, votes=1)
        edges, _ = reconstruct_tree(voter, 15, 3, random.Random(0))
        assert edges == set(tree.edges())

    def test_zero_noise_rejects_the_default_vote_formula(self):
        tree = random_tree(6, 3, seed=1)
        with pytest.raises(ValueError):
            run_single("noisy", tree, 3, seed=0, eps=0.0, delta=0.1)

    def test_noisy_recovery_with_default_votes(self):
        tree = random_tree(12, 3, seed=8)
        votes, lead = vote_size(0.1, 0.1, 12, 3)
        voter = NoisyOracle(tree, 0.1, seed=42, votes=votes, lead=lead)
        edges, _ = reconstruct_tree(voter, 12, 3, random.Random(4))
        assert edges == set(tree.edges())

    def test_single_node_needs_no_vote_count(self):
        noisy = NoisyOracle(shaped_tree("chain", 1), 0.1, seed=0, votes=1)
        edges, stats = reconstruct_tree(noisy, 1, 1, random.Random(0))
        assert edges == set()
        assert stats.rounds_total == 0
        assert noisy.calls == 0

    def test_vote_override_drives_the_raw_count(self):
        tree = random_tree(10, 3, seed=5)
        voter = NoisyOracle(tree, 0.05, seed=6, votes=3)
        try:
            reconstruct_tree(voter, 10, 3, random.Random(9))
        except InconsistentOracleError:
            pass  # three votes lie often enough for the run itself to fail
        assert voter.calls > 0
        # Each vote asks 2 answers when they agree and 3 when they split.
        assert 2 * voter.calls <= voter.raw <= 3 * voter.calls


class TestReconstructWeighted:
    """The additive regime, which inserts the nodes in depth order, checked
    against the hidden tree."""

    def test_edges_and_weights_recovered_verbatim(self, bent_tree):
        hidden = uniform_weights(bent_tree, seed=17)
        oracle = AdditiveOracle(hidden)
        edges, weights, _ = reconstruct_weighted(oracle, 11)
        assert edges == set(bent_tree.edges())
        assert weights == dict(hidden.weights)

    @pytest.mark.parametrize(
        "tree",
        [
            shaped_tree("chain", 40),
            shaped_tree("star", 40),
            shaped_tree("caterpillar", 40),
            random_tree(60, 3, seed=29),
        ],
        ids=["chain", "star", "caterpillar", "random"],
    )
    def test_a_run_has_no_rounds(self, tree):
        # No round and no split; the audit reads each edge out of the root.
        hidden = uniform_weights(tree, seed=17)
        edges, weights, stats = reconstruct_weighted(AdditiveOracle(hidden), tree.n)
        assert edges == set(tree.edges())
        assert weights == dict(hidden.weights)
        assert (stats.rounds_total, stats.recursion_depth_max, stats.audit_queries) == (
            0, 1, len(tree.children[tree.root])
        )

    @pytest.mark.parametrize("shape", ["star", "random"])
    @pytest.mark.parametrize("seed", range(3))
    def test_the_root_scan_and_the_depth_reads_come_first(self, shape, seed):
        # The tournament's Q(k, candidate) for k = 1 .. n-1, a candidate
        # beaten by each k that reaches it, then Q(root, k) in node order
        # for every k but the root and the node it beat, whose depth its
        # yes was. No insertion query asks the root, or asks about a node
        # deeper than its target, and the audit ends the run with the
        # root's edges, in order of the child's id.
        tree = shaped_tree("star", 30) if shape == "star" else random_tree(200, 3, seed=2)
        tree = _relabelled(tree, seed)
        hidden = uniform_weights(tree, seed=5)
        recorder = _RecordingOracle(AdditiveOracle(hidden))
        edges, weights, _ = reconstruct_weighted(recorder, tree.n)
        assert edges == set(tree.edges()) and weights == dict(hidden.weights)
        pairs = [(a, b) for a, b, _ in recorder.transcript]
        root, n = tree.root, tree.n
        candidate, beaten, tournament = 0, None, []
        for k in range(1, n):
            tournament.append((k, candidate))
            if is_ancestor(tree, k, candidate):
                candidate, beaten = k, candidate
        assert candidate == root
        assert pairs[: n - 1] == tournament
        reads = [(root, k) for k in range(n) if k not in (root, beaten)]
        assert pairs[n - 1 : n - 1 + len(reads)] == reads
        depth = {k: recorder.inner.query(root, k) for k in range(n) if k != root}
        depth[root] = 0.0
        audit = [(root, c) for c in sorted(tree.children[root])]
        later = pairs[n - 1 + len(reads) : -len(audit)]
        assert later and all(a != root and depth[a] <= depth[b] for a, b in later)
        assert pairs[-len(audit) :] == audit

    def test_tied_sums_keep_the_highest_node_as_root(self):
        # The root 1 sits 2**-53 above node 0, so Q(0, 4) and Q(1, 4) both
        # read 3.0. No sum is compared: Q(1, 0) beats the candidate 0, and
        # its answer, 2**-53, is 0's depth, which no depth read asks again.
        tree = validate_tree([1, ROOT, 0, 2, 3], 2)
        weights = {(1, 0): 2.0**-53, (0, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0}
        hidden = WeightedDirectedRootedTree(tree, weights)
        recorder = _RecordingOracle(AdditiveOracle(hidden))
        edges, got, stats = reconstruct_weighted(recorder, 5)
        assert edges == set(tree.edges())
        assert {e: w.hex() for e, w in got.items()} == {e: w.hex() for e, w in weights.items()}
        pairs = [(a, b) for a, b, _ in recorder.transcript]
        assert pairs[:7] == [(1, 0), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (1, 4)]
        before = pairs[: len(pairs) - stats.audit_queries]
        assert len(set(before)) == len(before)

    @pytest.mark.parametrize("parent", [(ROOT, 0), (1, ROOT)])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_nodes_take_at_most_three_queries(self, parent, seed):
        # The tournament's one query, Q(1, 0), settles the pair when 1 is
        # the root, its answer being 0's depth; with 0 the root a depth
        # read follows. The audit reads the edge once more. The seed draws
        # only the weight.
        tree = validate_tree(parent, 1)
        hidden = uniform_weights(tree, seed=seed)
        recorder = _RecordingOracle(AdditiveOracle(hidden))
        edges, weights, stats = reconstruct_weighted(recorder, 2)
        assert edges == set(tree.edges())
        assert weights == dict(hidden.weights)
        pairs = [(a, b) for a, b, _ in recorder.transcript]
        found = [(1, 0)] if tree.root == 1 else [(1, 0), (0, 1)]
        assert pairs == found + [(tree.root, 1 - tree.root)]
        assert stats == reconstruct.ReconstructionStats(audit_queries=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_root_childs_depth_read_of_zero_fails_the_run(self, seed):
        # A root child's depth read is its edge's weight, and no later query
        # asks that edge again. A read of 0.0 there must still fail the run,
        # not come back as a weight. The seed relabels the tree; at seed 3
        # the root beats its child 24 in the tournament, so the 0.0 there
        # denies the yes that would have made the root the candidate.
        tree = _relabelled(random_tree(40, 3, seed=11), seed)
        hidden = uniform_weights(tree, seed=12)
        for child in tree.children[tree.root]:

            class RootLiar(AdditiveOracle):
                def query(self, i, j):
                    answer = super().query(i, j)
                    return 0.0 if (i, j) == (tree.root, child) else answer

            with pytest.raises(InconsistentOracleError):
                reconstruct_weighted(RootLiar(hidden), tree.n)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_deeper_depth_read_of_zero_fails_before_any_insertion(self, seed):
        # Every depth is read before the first node goes in, so a read of
        # 0.0 below the root's children raises after at most 2n - 2 queries,
        # with the stats of a run that ran no round. The seed relabels the
        # tree.
        tree = _relabelled(random_tree(40, 3, seed=11), seed)
        hidden = uniform_weights(tree, seed=12)
        deeper = [k for k in range(tree.n) if tree.parent[k] not in (ROOT, tree.root)]
        for k in deeper[:: 4]:

            class DepthLiar(AdditiveOracle):
                def query(self, i, j):
                    answer = super().query(i, j)
                    return 0.0 if (i, j) == (tree.root, k) else answer

            liar = DepthLiar(hidden)
            with pytest.raises(InconsistentOracleError, match="depth 0") as caught:
                reconstruct_weighted(liar, tree.n)
            assert caught.value.stats == reconstruct.ReconstructionStats()
            assert liar.calls <= 2 * tree.n - 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "caterpillar", "parallel_chain", "random"]),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_tied_depths_keep_every_edge_and_weight(self, shape, n, seed):
        # Weights of 1.0 and 2**-53 make many depths and sums tie in floats,
        # so ancestors share their descendants' depths, and nodes go in
        # below their tied descendants and move them. Every edge and every
        # weight, bit for bit, is the hidden tree's.
        tree = _relabelled(_shaped(shape, n, seed), seed)
        hidden = _magnitudes(tree, seed)
        edges, weights, _ = reconstruct_weighted(AdditiveOracle(hidden), tree.n)
        assert edges == set(tree.edges())
        assert {e: w.hex() for e, w in weights.items()} == {
            e: w.hex() for e, w in hidden.weights.items()
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "random"]),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_a_run_is_a_function_of_its_oracle(self, shape, n, seed):
        # The run draws nothing, so two runs over fresh oracles on one tree
        # ask the same pairs, hear the same answers and return the same tree.
        tree = _relabelled(_shaped(shape, n, seed), seed)
        hidden = uniform_weights(tree, seed=seed)
        runs = []
        for _ in range(2):
            recorder = _RecordingOracle(AdditiveOracle(hidden))
            runs.append((reconstruct_weighted(recorder, tree.n), recorder.transcript))
        assert runs[0] == runs[1]
        assert runs[0][0][1] == dict(hidden.weights)

    @pytest.mark.parametrize("shape", ["chain", "star", "caterpillar", "random"])
    @pytest.mark.parametrize("seed", range(1, 4))
    def test_the_root_asks_the_node_it_beat_once(self, shape, seed):
        # The yes that makes the root the candidate is the beaten node's
        # depth, so no depth read or insertion asks (root, beaten) again
        # before the audit. These labels keep the root off node 0, so the
        # root beats some node.
        tree = _relabelled(_shaped(shape, 40, seed), seed)
        assert tree.root != 0
        recorder = _RecordingOracle(AdditiveOracle(uniform_weights(tree, seed=seed)))
        edges, _, stats = reconstruct_weighted(recorder, tree.n)
        assert edges == set(tree.edges())
        pairs = [(a, b) for a, b, _ in recorder.transcript]
        before = pairs[: len(pairs) - stats.audit_queries]
        yes = [(a, b) for a, b, answer in recorder.transcript[: tree.n - 1] if answer]
        assert yes[-1][0] == tree.root
        assert before.count(yes[-1]) == 1

    def test_weight_keys_are_the_recovered_edges(self):
        tree = random_tree(20, 4, seed=3)
        hidden = uniform_weights(tree, seed=4)
        edges, weights, _ = reconstruct_weighted(AdditiveOracle(hidden), 20)
        assert set(weights) == edges


class TestAdditiveFloor:
    """The weighted twin of TestQueryFloor. Take sibling leaves a and b with
    D(a) <= D(b). Hanging b under a, with the weight D(b) - D(a), agrees
    with every depth and every other answer but Q(a, b), so a run that is
    always right asks every unordered pair of sibling leaves in at least
    one direction: C(n - 1, 2) pairs on an n-node star, half the exact
    floor. The counts below leave out the audit's reads after the last
    insertion, one per child of the root."""

    @staticmethod
    def _check(tree, seed):
        hidden = uniform_weights(tree, seed=seed)
        recorder = _RecordingOracle(AdditiveOracle(hidden))
        edges, weights, stats = reconstruct_weighted(recorder, tree.n)
        assert edges == set(tree.edges()) and weights == dict(hidden.weights)
        asked = {frozenset((i, j)) for i, j, _ in recorder.transcript}
        missing = {frozenset(pair) for pair in _sibling_leaf_pairs(tree)} - asked
        assert not missing, (tree.parent, seed, sorted(map(sorted, missing)))
        assert stats.audit_queries == len(tree.children[tree.root])
        return len(recorder.transcript) - stats.audit_queries

    @pytest.mark.parametrize("n", [2, 3, 5, 30, 150])
    @pytest.mark.parametrize("seed", range(5))
    def test_a_star_asks_its_floor_and_its_reads(self, n, seed):
        star = _relabelled(shaped_tree("star", n), seed)
        asked = self._check(star, seed)
        assert asked <= math.comb(n - 1, 2) + 2 * n - 2

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_a_random_tree_asks_every_sibling_leaf_pair(self, d):
        for n, seed in itertools.product((3, 8, 30, 150), range(10)):
            self._check(_relabelled(random_tree(n, d, seed=seed), seed), seed)
