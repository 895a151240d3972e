"""Shared fixtures and test doubles.

The two hand-built 11-node trees used across the suite share one skeleton:
a five-node spine 0-1-2-3-4 with leaves 5 and 6 under 0, 7 under 1, 8
(which carries 9) under 2, and 10 under 4. ``spine_tree`` roots the
skeleton at 0, so any walk starting there is a single directed path;
``bent_tree`` roots it at 8, so a walk between the spine's ends bends at
node 2. Expected values asserted against these trees were worked out by
hand from the drawing.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import strategies as st

from treeprobe import DirectedRootedTree, oracles, validate_tree
from treeprobe.trees import max_node_degree

SPINE_PARENT = (-1, 0, 1, 2, 3, 0, 0, 1, 2, 8, 4)
BENT_PARENT = (1, 2, 8, 2, 3, 0, 0, 1, -1, 8, 4)

# Tree files that parse line by line but hold no tree, each with the reason
# that follows "not a valid tree: " in parse_tree's error.
NOT_A_TREE = [
    ("2\n0 -1\n1 -1\n", "nodes [0, 1] all claim to be the root"),
    ("2\n0 1\n1 0\n", "no root: every parent chain must then loop"),
    ("2\n0 -1\n1 1\n", "node 1 is its own parent"),
    ("3\n0 -1\n1 2\n2 1\n", "nodes [1, 2] are not reachable from the root"),
    ("2\n0 -1\n1 -2\n", "parent of node 1 is out of range: -2"),
    ("2\n0 -1\n1 5\n", "parent of node 1 is out of range: 5"),
]


@pytest.fixture
def spine_tree() -> DirectedRootedTree:
    return validate_tree(SPINE_PARENT, 3)


@pytest.fixture
def bent_tree() -> DirectedRootedTree:
    return validate_tree(BENT_PARENT, 3)


@contextlib.contextmanager
def no_walk_step():
    """Fail any step of a vote table's walk, and yield ``_walk``'s cache
    size on entry. Each step pairs neighbouring masses with ``zip``, which
    this shadows in the oracles module."""

    def step(*args):
        raise AssertionError("a vote table's walk took a step")

    with mock.patch.object(oracles, "zip", step, create=True):
        yield oracles._walk.cache_info().currsize


class ScriptedRng:
    """Sampling stub that dequeues preset ``choice`` results first.

    The driver draws one node per round with ``rng.choice``. Once the script
    is exhausted the stub defers to a normal seeded Random, so a
    reconstruction can be steered through a chosen first endpoint and then
    left to finish on its own.
    """

    def __init__(self, scripted_choices, seed=0):
        self._scripted = list(scripted_choices)
        self._fallback = random.Random(seed)

    def choice(self, population):
        if self._scripted:
            picked = self._scripted.pop(0)
            assert picked in population
            return picked
        return self._fallback.choice(population)


@st.composite
def parent_array_trees(draw, min_n: int = 1, max_n: int = 10) -> DirectedRootedTree:
    """Random labeled rooted tree; every topology has positive probability.

    Builds a random recursive tree over a drawn label order: node t picks
    its parent uniformly among the t earlier nodes, then the labels are the
    drawn permutation. The degree bound is the tightest valid one.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    order = draw(st.permutations(range(n)))
    parent = [-1] * n
    for t in range(1, n):
        at = draw(st.integers(min_value=0, max_value=t - 1))
        parent[order[t]] = order[at]
    return validate_tree(parent, max_node_degree(parent))
