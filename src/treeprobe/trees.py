"""Directed rooted trees: validation, degree checks, edge-list conversion.

Everything in this module works from ground truth (the full parent array).
The query-driven driver lives in :mod:`treeprobe.reconstruct` and is only
allowed to look at the tree through an oracle; the ground-truth ancestry,
path and bag helpers the tests check it against live in the test suite.

Node ids are dense integers ``0 .. n-1``. ``parent[v]`` is the parent of
``v`` and the single root carries the sentinel ``ROOT`` (-1). Trees are
immutable once validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InvalidTreeError

ROOT = -1


@dataclass(frozen=True)
class DirectedRootedTree:
    """Immutable tree in parent-array form.

    Attributes:
        parent: ``parent[v]`` is the parent of ``v``; ``ROOT`` marks the root.
        children: per-node child tuples derived from ``parent``.
        root: id of the unique root.
        degree_bound: declared bound; every node satisfies
            ``len(children[v]) + (0 if v is the root else 1) <= degree_bound``.
    """

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    root: int
    degree_bound: int

    @property
    def n(self) -> int:
        return len(self.parent)

    def edges(self) -> list[tuple[int, int]]:
        """Return a new list of the n-1 directed edges as (parent, child),
        child-ascending."""
        return [(par, child) for child, par in enumerate(self.parent) if par != ROOT]


@dataclass(frozen=True)
class WeightedDirectedRootedTree:
    """A validated tree plus a positive weight on every edge."""

    tree: DirectedRootedTree
    weights: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        if self.weights.keys() != set(self.tree.edges()):
            raise InvalidTreeError(
                "weights must be keyed by exactly the tree's (parent, child) edges"
            )
        for edge, w in self.weights.items():
            if not w > 0:
                raise InvalidTreeError(f"weight for edge {edge} must be > 0, got {w!r}")

    @property
    def n(self) -> int:
        return self.tree.n


def validate_tree(parent: Sequence[int], degree_bound: int) -> DirectedRootedTree:
    """Check a parent array and return the immutable tree.

    Raises InvalidTreeError when the array is not a directed rooted tree
    within the bound: a parent that is not an int, or a bound that no tree
    on the array's nodes fits (:func:`check_degree_feasible`), included.
    """
    parent = tuple(parent)
    n = len(parent)
    if n == 0:
        raise InvalidTreeError("a tree needs at least one node")
    check_degree_feasible(n, degree_bound)

    roots = parent.count(ROOT)
    if roots > 1:
        claims = [v for v, p in enumerate(parent) if p == ROOT]
        raise InvalidTreeError(f"nodes {claims} all claim to be the root")
    if not roots:
        raise InvalidTreeError("no root: every parent chain must then loop")
    root = parent.index(ROOT)
    if not isinstance(parent[root], int):
        raise InvalidTreeError(f"parent of node {root} must be an int, got {parent[root]!r}")

    # kids has one extra list, kids[ROOT], for the root. Any fault leaves
    # this path: a parent that is not an int or is above n stops the pass,
    # one below ROOT fails the min, and one at n, a self-parent or a cycle
    # leaves nodes that the walk from the root does not reach.
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    try:
        for v, p in enumerate(parent):
            kids[p].append(v)
        order = [root] if min(parent) == ROOT else []
    except (TypeError, IndexError):
        order = []
    for u in order:
        order.extend(kids[u])
    if len(order) != n:
        _raise_first_fault(parent, root)
    del kids[ROOT]

    if max(map(len, kids)) >= degree_bound:
        for v in range(n):
            deg = len(kids[v]) + (0 if v == root else 1)
            if deg > degree_bound:
                raise InvalidTreeError(
                    f"node {v} has degree {deg}, above the bound {degree_bound}"
                )

    return DirectedRootedTree(
        parent=parent,
        children=tuple(map(tuple, kids)),
        root=root,
        degree_bound=degree_bound,
    )


def _raise_first_fault(parent: tuple, root: int) -> None:
    """Name what makes ``parent``, with its one int root, no tree: the
    first node, in id order, whose parent is out of range, itself or not an
    int, else every node the root does not reach."""
    n = len(parent)
    kids: list[list[int]] = [[] for _ in range(n)]
    try:
        for v, p in enumerate(parent):
            if p == ROOT:
                continue
            if not 0 <= p < n:
                raise InvalidTreeError(f"parent of node {v} is out of range: {p}")
            if p == v:
                raise InvalidTreeError(f"node {v} is its own parent")
            kids[p].append(v)
    except TypeError:
        # Only a parent that is not an int fails to compare or to index.
        v, p = next((v, p) for v, p in enumerate(parent) if not isinstance(p, int))
        raise InvalidTreeError(f"parent of node {v} must be an int, got {p!r}") from None

    order = [root]
    for u in order:
        order.extend(kids[u])
    reached = set(order)
    bad = [v for v in range(n) if v not in reached]
    raise InvalidTreeError(f"nodes {bad} are not reachable from the root")


def max_node_degree(parent: Sequence[int]) -> int:
    """Largest skeleton degree over the array's nodes (>= 1 for n >= 1)."""
    n = len(parent)
    deg = [0] * n
    for v, p in enumerate(parent):
        if p != ROOT:
            deg[v] += 1
            deg[p] += 1
    return max(deg, default=0) or 1


def check_node_count(n: int) -> None:
    """Raise InvalidTreeError unless ``n`` is an int >= 0."""
    if not isinstance(n, int):
        raise InvalidTreeError(f"node count must be an int, got {n!r}")
    if n < 0:
        raise InvalidTreeError(f"node count must be >= 0, got {n}")


def check_degree_feasible(n: int, degree_bound: int) -> None:
    """The one gate on a node count and a degree bound: raise
    InvalidTreeError unless :func:`check_node_count` passes ``n`` and some
    tree on n nodes fits the bound, an int >= 1 that is at least 2 above
    two nodes. Types come first, since a NaN passes every comparison."""
    check_node_count(n)
    if not isinstance(degree_bound, int):
        raise InvalidTreeError(f"degree bound must be an int, got {degree_bound!r}")
    if degree_bound < 1:
        raise InvalidTreeError(f"degree bound must be >= 1, got {degree_bound}")
    if n >= 3 and degree_bound < 2:
        raise InvalidTreeError(f"no tree on {n} nodes fits degree bound {degree_bound}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> DirectedRootedTree:
    """Build a validated tree from (parent, child) pairs, at the tight bound.

    Raises InvalidTreeError when the pairs are not a tree on 0..n-1, ``n``
    or a node id that is not an int included (useful for vetting edge sets
    recovered from unreliable oracles).
    """
    if not isinstance(n, int):
        raise InvalidTreeError(f"node count must be an int, got {n!r}")
    if n < 1:
        raise InvalidTreeError("a tree needs at least one node")
    parent = [ROOT] * n
    count = 0
    for p, c in edges:
        if not (isinstance(p, int) and isinstance(c, int)):
            raise InvalidTreeError(f"node ids must be ints, got the edge {(p, c)!r}")
        if not 0 <= c < n:
            raise InvalidTreeError(f"child {c} out of range")
        if not 0 <= p < n:
            raise InvalidTreeError(f"parent {p} of node {c} out of range")
        if parent[c] != ROOT:
            raise InvalidTreeError(f"node {c} has two parents")
        parent[c] = p
        count += 1
    if count != n - 1:
        raise InvalidTreeError(f"expected {n - 1} edges, got {count}")
    return validate_tree(parent, max_node_degree(parent))

