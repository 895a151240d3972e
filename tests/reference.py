"""Reference implementations the tests cross-check the fast path against.

Nothing here is clever on purpose: the ancestry, skeleton-path and bag
helpers walk the full parent array, the brute-force reconstructor spends the
full n(n-1) queries, the enumerator walks every parent array, the
separator check recomputes component sizes from ground truth, on the cuts
that ``accepted_cuts`` collects from the driver's own gate, the sequential
vote's billing table steps every position of the walk, a plain majority's
error is its closed-form binomial tail, the search plan is split by
recursion, placement walks a plan for every node, on paths of two nodes
too, the random tree draws through ``randrange`` and ``shuffle``, validation
checks a parent array one node at a time, and a weighted tree compares two
key sets.
"""

from __future__ import annotations

import contextlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence
from unittest import mock

from treeprobe import (
    DirectedRootedTree,
    InvalidTreeError,
    reconstruct,
    validate_tree,
)
from treeprobe.trees import ROOT, check_degree_feasible

ENUMERATION_CAP = 7


def is_ancestor(tree: DirectedRootedTree, i: int, j: int) -> bool:
    """True iff a directed path i -> j exists (i is a proper ancestor of j)."""
    _check_pair(tree.n, i, j)
    parent = tree.parent
    k = parent[j]
    while k != ROOT:
        if k == i:
            return True
        k = parent[k]
    return False


def root_chain(tree: DirectedRootedTree, v: int) -> list[int]:
    """All proper ancestors of v, ordered root first."""
    parent = tree.parent
    chain = []
    k = parent[v]
    while k != ROOT:
        chain.append(k)
        k = parent[k]
    chain.reverse()
    return chain


def skeleton_path(tree: DirectedRootedTree, i: int, j: int) -> tuple[list[int], list[int]]:
    """Ground-truth path between i and j as its two slopes ``(to_i, to_j)``.

    Each slope runs from the lowest common ancestor down to one endpoint;
    an endpoint that is the ancestor of the other is its own one-node slope.
    """
    _check_pair(tree.n, i, j)
    parent = tree.parent

    up_i = [i]
    k = parent[i]
    while k != ROOT:
        up_i.append(k)
        k = parent[k]
    pos = {v: t for t, v in enumerate(up_i)}

    down_j = []  # j's strict climb until it meets i's chain
    k = j
    while k not in pos:
        down_j.append(k)
        k = parent[k]

    return up_i[pos[k] :: -1], [k, *reversed(down_j)]


def bag_nodes(tree: DirectedRootedTree, to_i: list[int], to_j: list[int]) -> dict[int, int]:
    """Map every node to the path node it hangs from.

    Remove the path's edges from the skeleton; each remaining component
    contains exactly one path node, and all nodes of the component map to
    it. Path nodes map to themselves.
    """
    cut = set()
    for slope in (to_i, to_j):
        for a, b in zip(slope, slope[1:]):
            cut.add((a, b))

    neighbours: list[list[int]] = [[] for _ in range(tree.n)]
    for p, c in tree.edges():
        if (p, c) not in cut:
            neighbours[p].append(c)
            neighbours[c].append(p)

    out: dict[int, int] = {}
    for start in (*to_i, *to_j):
        stack = [start]
        out[start] = start
        while stack:
            u = stack.pop()
            for w in neighbours[u]:
                if w not in out:
                    out[w] = start
                    stack.append(w)
    if len(out) != tree.n:
        raise ValueError("path does not belong to this tree")
    return out


def tree_equals(a: DirectedRootedTree, b: DirectedRootedTree) -> bool:
    """Same node count and identical parent arrays (bounds are ignored)."""
    return a.parent == b.parent


def descent(tree: DirectedRootedTree, pick) -> tuple[int, int]:
    """A node i below the root and a proper ancestor p of it, as a round on
    p's subtree meets them: ``pick(k)`` chooses one of k indices."""
    lower = [v for v in range(tree.n) if tree.parent[v] != ROOT]
    i = lower[pick(len(lower))]
    ancestors = root_chain(tree, i)
    return ancestors[pick(len(ancestors))], i


def subtree_nodes(tree: DirectedRootedTree, v: int) -> list[int]:
    """The subtree rooted at v: v first, then its proper descendants in
    ascending order, as the driver lists a part."""
    below = []
    stack = list(tree.children[v])
    while stack:
        u = stack.pop()
        below.append(u)
        stack.extend(tree.children[u])
    return [v, *sorted(below)]


def subtree_size(tree: DirectedRootedTree, v: int) -> int:
    """Number of nodes in the subtree rooted at v (v included)."""
    return len(subtree_nodes(tree, v))


def _check_pair(n: int, i: int, j: int) -> None:
    if i == j:
        raise ValueError(f"i and j must differ, both are {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"node pair ({i}, {j}) out of range for n={n}")


class NotAnEdgeError(ValueError):
    """The given (parent, child) pair is not an edge of the tree."""


class EnumerationCapError(ValueError):
    """Exhaustive tree enumeration requested above the supported size."""


@dataclass
class QueryMatrix:
    """All n(n-1) ordered-pair query bits for a node set."""

    nodes: tuple[int, ...]
    bits: dict[tuple[int, int], int]

    @classmethod
    def collect(cls, oracle, nodes: Sequence[int]) -> "QueryMatrix":
        nodes = tuple(sorted(nodes))
        bits = {}
        for i in nodes:
            for j in nodes:
                if i != j:
                    bits[(i, j)] = oracle.query(i, j)
        return cls(nodes, bits)

    def is_transitive(self) -> bool:
        """Q(i,j) and Q(j,k) must force Q(i,k); lying oracles fail this."""
        for i in self.nodes:
            for j in self.nodes:
                if i == j or not self.bits[(i, j)]:
                    continue
                for k in self.nodes:
                    if k != i and k != j and self.bits[(j, k)] and not self.bits[(i, k)]:
                        return False
        return True


def brute_force_reconstruct(oracle, nodes: Sequence[int]) -> set[tuple[int, int]]:
    """Recover the tree by querying every ordered pair.

    The root is the node with no ancestors; every other node's parent is its
    deepest ancestor, i.e. the ancestor that itself has the most ancestors.
    """
    matrix = QueryMatrix.collect(oracle, nodes)
    ancestors = {
        j: [i for i in matrix.nodes if i != j and matrix.bits[(i, j)]]
        for j in matrix.nodes
    }
    edges = set()
    for j in matrix.nodes:
        if ancestors[j]:
            parent = max(ancestors[j], key=lambda a: len(ancestors[a]))
            edges.add((parent, j))
    return edges


def enumerate_trees(n: int, degree_bound: int) -> Iterator[DirectedRootedTree]:
    """Yield every valid directed rooted tree on n nodes, once each.

    Runs through all parent arrays and keeps those that validate under the
    bound. Capped at n = 7 (about 3.3e5 candidate arrays); anything larger
    raises EnumerationCapError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"enumeration is capped at n = {ENUMERATION_CAP}, asked for {n}"
        )
    parent = [0] * n
    others = [[p for p in range(n) if p != v] for v in range(n)]

    def fill(v: int, root: int) -> Iterator[DirectedRootedTree]:
        if v == n:
            try:
                yield validate_tree(parent, degree_bound)
            except InvalidTreeError:
                pass
            return
        if v == root:
            yield from fill(v + 1, root)
            return
        for p in others[v]:
            parent[v] = p
            yield from fill(v + 1, root)

    for root in range(n):
        parent[root] = -1
        yield from fill(0, root)


def check_separator(tree: DirectedRootedTree, separator: tuple[int, int]) -> bool:
    """True iff cutting this true edge leaves both sides big enough.

    Uses the same balance threshold as the reconstruction (both components
    need at least ceil((n-1)/d) nodes, d taken from the tree). Raises
    NotAnEdgeError when the pair is not an edge of the tree.
    """
    p, c = separator
    if not (0 <= c < tree.n) or tree.parent[c] != p:
        raise NotAnEdgeError(f"({p}, {c}) is not an edge of this tree")
    below = subtree_size(tree, c)
    rest = tree.n - below
    low = -(-(tree.n - 1) // tree.degree_bound)
    return below >= low and rest >= low


@contextlib.contextmanager
def accepted_cuts() -> Iterator[list[tuple[tuple[int, int], tuple[int, ...]]]]:
    """Collect ``(cut, part)`` for every round accepted while the block runs.

    Every round hands its part and its best cut to
    ``reconstruct.find_even_separator``, so wrapping it sees each cut the
    gate lets through. The part is listed as the driver lists it: its root
    first, then every other node ascending.
    """
    cuts = []
    gate = reconstruct.find_even_separator

    def recording(part, side, cut, degree_bound):
        found = gate(part, side, cut, degree_bound)
        if found is not None:
            cuts.append((found, (part[0], *sorted(part[1:]))))
        return found

    with mock.patch.object(reconstruct, "find_even_separator", recording):
        yield cuts


def walk_by_positions(votes: int, lead: int, noise: float):
    """The capped sequential vote's ``(error, right, wrong)`` table, as
    ``oracles._walk`` returns it, by the one-step recurrence over all
    2 * lead + 1 positions of D = right - wrong answers.

    Each step moves every position, dead parity included, then takes the
    stops at |D| >= min(lead, votes - t + 1) as ``math.fsum`` of the slices
    and zeroes them. ``right`` and ``wrong`` list (t, P(T = t, outcome),
    share of the mass at t and later) for each t with mass.
    """
    q = 1.0 - noise
    alive = [0.0] * (2 * lead + 1)  # alive[lead + D]: not yet stopped
    alive[lead] = 1.0
    right: list[tuple[int, float]] = []
    wrong: list[tuple[int, float]] = []
    for t in range(1, votes + 1):
        inner = [q * a + noise * b for a, b in zip(alive, alive[2:])]
        alive = [noise * alive[1], *inner, q * alive[-2]]
        bound = min(lead, votes - t + 1)
        top, bottom = lead + bound, lead - bound
        hit_right, hit_wrong = math.fsum(alive[top:]), math.fsum(alive[: bottom + 1])
        if hit_right:
            right.append((t, hit_right))
        if hit_wrong:
            wrong.append((t, hit_wrong))
        alive[top:] = [0.0] * (lead - bound + 1)
        alive[: bottom + 1] = [0.0] * (lead - bound + 1)

    def with_shares(stops):
        out = []
        tail = 0.0
        for t, mass in reversed(stops):
            tail += mass
            out.append((t, mass, mass / tail))
        return tuple(reversed(out))

    return math.fsum(m for _, m in wrong), with_shares(right), with_shares(wrong)


def majority_error(votes: int, noise: float) -> float:
    """Chance that a majority of ``votes`` noisy answers is wrong, in closed
    form: ``P(Bin(votes, noise) >= (votes + 1) / 2)``, exactly ``noise`` for
    one vote. The binomial terms are formed in log space and added with
    ``math.fsum``, so large counts neither overflow nor lose the tail."""
    if votes == 1:
        return noise
    if noise == 0.0:
        return 0.0
    log_p = math.log(noise)
    log_q = math.log1p(-noise)
    log_m = math.lgamma(votes + 1)
    return math.fsum(
        math.exp(
            log_m
            - math.lgamma(k + 1)
            - math.lgamma(votes - k + 1)
            + k * log_p
            + (votes - k) * log_q
        )
        for k in range(votes // 2 + 1, votes + 1)
    )


def recursive_search_plan(weights: Sequence[int]) -> reconstruct.Plan:
    """``reconstruct.search_plan`` by its recursive definition: the interval
    [lo, hi] of candidate answers splits at the last m in (lo, hi] whose
    weight from lo is at most half the interval's (m = lo + 1 if none is),
    and its entry is m, or ~lo for one position. One frame per position."""
    prefix = [0, *accumulate(weights)]
    hit = [0] * len(weights)
    miss = [0] * len(weights)

    def split(lo: int, hi: int) -> int:
        if lo == hi:
            return ~lo
        m = bisect_right(prefix, (prefix[lo] + prefix[hi + 1]) // 2, lo + 1, hi + 1) - 1
        m = max(m, lo + 1)
        hit[m] = split(m, hi)
        miss[m] = split(lo, m - 1)
        return m

    return split(0, len(weights) - 1), hit, miss


def walk_plan(query, path: Sequence[int], plan, nodes: Sequence[int]) -> list[int]:
    """The walks ``ExactOracle.deepest`` batches, asked one query at a time:
    each node's answer position, in order."""
    first, hit, miss = plan
    found = []
    for k in nodes:
        at = first
        while at > 0:
            at = hit[at] if query(path[at], k) else miss[at]
        found.append(~at)
    return found


def plan_walk_pieces(oracle, part: Sequence[int], path: Sequence[int]) -> list[list[int]]:
    """``reconstruct.path_pieces`` with every node placed by a plan walk,
    whatever the path's length, and plans from ``recursive_search_plan``.

    The first 16 nodes off the path walk the unit plan, and the plan is
    reweighed by the pieces so far at 16, 128, 1024, ... placements, except
    on a path of at most two nodes, which has only one plan.
    """
    pieces = {k: [k] for k in path}
    todo = [k for k in part if k not in pieces]
    first, hit, miss = recursive_search_plan([1] * len(path))
    stop = 16 if len(path) > 2 else len(todo)
    start = 0
    while True:
        for k in todo[start:stop]:
            at = first
            while at > 0:
                at = hit[at] if oracle.query(path[at], k) else miss[at]
            pieces[path[~at]].append(k)
        if stop >= len(todo):
            return list(pieces.values())
        first, hit, miss = recursive_search_plan([len(pieces[v]) for v in path])
        start, stop = stop, stop * 8


def random_tree_by_randrange(n: int, degree_bound: int, seed) -> DirectedRootedTree:
    """``generators.random_tree`` with its draws made by ``rng.randrange``
    and ``rng.shuffle``, and the tree checked by
    :func:`validate_tree_node_by_node`."""
    check_degree_feasible(n, degree_bound)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed is None:
        raise ValueError("seed must not be None, which seeds from OS entropy")
    rng = random.Random(seed)

    shape = [-1] * n
    capacity = [degree_bound] + [degree_bound - 1] * (n - 1)
    open_slots = [0]
    for t in range(1, n):
        at = rng.randrange(len(open_slots))
        p = open_slots[at]
        shape[t] = p
        capacity[p] -= 1
        if capacity[p] == 0:
            open_slots[at] = open_slots[-1]
            open_slots.pop()
        if capacity[t] > 0:
            open_slots.append(t)

    label = list(range(n))
    rng.shuffle(label)
    parent = [0] * n
    for t in range(n):
        parent[label[t]] = -1 if shape[t] == -1 else label[shape[t]]
    return validate_tree_node_by_node(parent, degree_bound)


def validate_tree_node_by_node(parent: Sequence[int], degree_bound: int) -> DirectedRootedTree:
    """``validate_tree``, checking each node's parent in id order, then
    reachability by a stack walk, then each node's degree."""
    parent = tuple(parent)
    n = len(parent)
    if n == 0:
        raise InvalidTreeError("a tree needs at least one node")
    check_degree_feasible(n, degree_bound)

    roots = [v for v, p in enumerate(parent) if p == ROOT]
    if len(roots) > 1:
        raise InvalidTreeError(f"nodes {roots} all claim to be the root")
    if not roots:
        raise InvalidTreeError("no root: every parent chain must then loop")
    root = roots[0]
    if not isinstance(parent[root], int):
        raise InvalidTreeError(f"parent of node {root} must be an int, got {parent[root]!r}")

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
        v, p = next((v, p) for v, p in enumerate(parent) if not isinstance(p, int))
        raise InvalidTreeError(f"parent of node {v} must be an int, got {p!r}") from None

    seen = 1
    stack = [root]
    reached = bytearray(n)
    reached[root] = 1
    while stack:
        u = stack.pop()
        for c in kids[u]:
            reached[c] = 1
            seen += 1
            stack.append(c)
    if seen != n:
        bad = [v for v in range(n) if not reached[v]]
        raise InvalidTreeError(f"nodes {bad} are not reachable from the root")

    for v in range(n):
        deg = len(kids[v]) + (0 if v == root else 1)
        if deg > degree_bound:
            raise InvalidTreeError(
                f"node {v} has degree {deg}, above the bound {degree_bound}"
            )

    return DirectedRootedTree(
        parent=parent,
        children=tuple(tuple(c) for c in kids),
        root=root,
        degree_bound=degree_bound,
    )


def check_weights_by_key_sets(tree: DirectedRootedTree, weights) -> None:
    """``WeightedDirectedRootedTree``'s check of its weights, with the key
    set and the edge set built as two sets: raise InvalidTreeError unless
    the keys are exactly the tree's edges and every weight is > 0."""
    expected = {(p, c) for c, p in enumerate(tree.parent) if p != ROOT}
    if set(weights) != expected:
        raise InvalidTreeError(
            "weights must be keyed by exactly the tree's (parent, child) edges"
        )
    for edge, w in weights.items():
        if not w > 0:
            raise InvalidTreeError(f"weight for edge {edge} must be > 0, got {w!r}")
