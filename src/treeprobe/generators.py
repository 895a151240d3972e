"""Hidden-tree generators for tests and benchmarks."""

from __future__ import annotations

import random
from typing import Iterable

from .trees import (
    DirectedRootedTree,
    WeightedDirectedRootedTree,
    check_degree_feasible,
    max_node_degree,
    validate_tree,
)

SHAPES = ("chain", "star", "caterpillar", "balanced")


def random_tree(n: int, degree_bound: int, seed) -> DirectedRootedTree:
    """Uniform-attachment random tree under a degree bound.

    Nodes arrive one at a time and pick their parent uniformly among the
    existing nodes that still have child capacity (the root may have
    degree_bound children, everyone else one fewer). Labels are then shuffled
    so node ids carry no structural signal. Every topology that fits the
    bound has positive probability, and the result is a pure function of the
    seed, which must not be None.

    Each draw below m takes m.bit_length() bits from the seeded ``Random``'s
    ``getrandbits`` and draws again while the value is m or more: the
    rejection sampler behind ``Random.randrange(m)`` and ``Random.shuffle``
    (Durstenfeld's shuffle, CACM 1964, Algorithm 235), inlined, so a seed
    gives the same tree as those two calls would.
    """
    check_degree_feasible(n, degree_bound)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed is None:
        raise ValueError("seed must not be None, which seeds from OS entropy")
    bits = random.Random(seed).getrandbits

    shape = [-1] * n
    capacity = [degree_bound] + [degree_bound - 1] * (n - 1)
    open_slots = [0]
    for t in range(1, n):
        m = len(open_slots)
        k = m.bit_length()
        at = bits(k)
        while at >= m:
            at = bits(k)
        p = open_slots[at]
        shape[t] = p
        capacity[p] -= 1
        if capacity[p] == 0:
            open_slots[at] = open_slots[-1]
            open_slots.pop()
        if capacity[t] > 0:
            open_slots.append(t)

    label = list(range(n))
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        label[i], label[j] = label[j], label[i]
    parent = [0] * n
    for v, s in zip(label, shape):
        parent[v] = label[s]
    parent[label[0]] = -1
    return validate_tree(parent, degree_bound)


def parallel_chain(branches: int, length: int) -> DirectedRootedTree:
    """A root with ``branches`` disjoint chains of ``length`` nodes below it.

    This is the classic worst case for pair sampling: n = branches*length + 1
    nodes and no split better than one whole chain.
    """
    if not (isinstance(branches, int) and isinstance(length, int)) or branches < 1 or length < 1:
        raise ValueError(f"need int branches and length >= 1, got {branches!r} and {length!r}")
    n = branches * length + 1
    parent = [-1] * n
    for b in range(branches):
        start = 1 + b * length
        parent[start] = 0
        for step in range(1, length):
            parent[start + step] = start + step - 1
    return validate_tree(parent, max_node_degree(parent))


def shaped_tree(shape: str, n: int) -> DirectedRootedTree:
    """Canonical named shapes: chain, star, caterpillar, balanced (binary)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need an int n >= 1, got {n!r}")
    if shape == "chain":
        parent = [-1] + list(range(n - 1))
        bound = 2
    elif shape == "star":
        parent = [-1] + [0] * (n - 1)
        bound = max(1, n - 1)
    elif shape == "caterpillar":
        spine = (n + 1) // 2
        parent = [-1] + list(range(spine - 1))
        for leaf in range(spine, n):
            parent.append(leaf - spine)
        bound = 3
    elif shape == "balanced":
        parent = [-1] + [(v - 1) // 2 for v in range(1, n)]
        bound = 3
    else:
        raise ValueError(f"unknown shape {shape!r}; pick one of {SHAPES}")
    return validate_tree(parent, max(bound, max_node_degree(parent)))


def uniform_weights(tree: DirectedRootedTree, seed) -> WeightedDirectedRootedTree:
    """Attach independent uniform (0, 1] weights to every edge, a pure
    function of ``seed``, which must not be None."""
    if seed is None:
        raise ValueError("seed must not be None, which seeds from OS entropy")
    rng = random.Random(seed)
    weights = {edge: 1.0 - rng.random() for edge in sorted(tree.edges())}
    return WeightedDirectedRootedTree(tree, weights)

