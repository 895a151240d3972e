"""Tree reconstruction from path queries.

The driver is a Las-Vegas divide and conquer over parts whose root it knows.
A tournament of n-1 queries finds the root of the whole node set. A round on
a part with root r samples one other node i, rebuilds the path r -> i with
one membership query per other node, puts every other node into the piece of
the path node it hangs from, and accepts the round if some path edge has two
balanced enough sides. Each piece is a subtree rooted at its path node, so
no later part needs a tournament, and a 2-node part is settled by the two
checks that its root reaches the other node, with nothing to sample. Parts
still to solve wait on a stack, and each pass of the driver loop runs one
round on the top part: an accepted round keeps every path edge and pushes
each piece; a failed round pushes its part back. With a degree bound d the
balanced cut leaves sides no larger than a (d-1)/d fraction and every piece
lies inside one side, so the split depth stays logarithmic and the whole
thing needs O(d n log^2 n) queries in expectation.

A part keeps the path its last round found and the piece of each path node.
A round's node i lies in the piece of one path node p, so the path r -> p
is known and the rest of r -> i runs through p's piece: the round scans and
places only that piece, and the known path below p joins p's new piece
unasked. A node on the known path costs only its two checks. A failed round
pushes its part back with its new path, and an accepted one hands p's piece
the branch below p as its known path. A retry so asks no more than a fresh
round would, and on consistent answers it draws, accepts and adds exactly
what a fresh round would.

A node is put into its piece by a search down the path for the deepest path
node that reaches it. A round's first 16 nodes take plain binary searches.
After that the search is weighted by the sizes the pieces have reached so
far (Mehlhorn's bisection rule), so nodes of the big pieces, the root's on
random trees and the sampled node's on chains, cost fewer queries. Every
placement still asks O(log n) queries, which the bound above rests on.

A path is held as its two slopes, each running from the lowest common
ancestor (LCA) down to one endpoint, so consecutive slope nodes are (parent,
child) edges as they stand. A round searches the new stretch p -> i of its
path as one slope, with p alone as the other, where a bag search asks
nothing. ``reconstruct_skeleton_path`` rebuilds the path between two nodes
with no known root.

A bound below the true degree can leave no balanced edge on any path. Any
true edge is a correct cut, so the bound only sets the gate: a part whose
rounds keep failing doubles its gate's bound, which accepts any path once it
reaches the part size less one, and its pieces start from the bound it was
accepted at. Every input therefore ends. A bound of 1 fits only two nodes,
which their two checks settle.

The driver reads every answer only as a truth value, so all three regimes
run on it unchanged: an exact bit, a noisy majority bit, or an additive path
sum, positive exactly when the path exists. The additive regime then reads
each recovered edge's weight with one more query.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

from .errors import InconsistentOracleError
from .trees import check_degree_feasible


@dataclass
class ReconstructionStats:
    """Counters from one reconstruction run.

    rounds_total: sampling rounds summed over all parts; every part of
        >= 3 nodes runs at least one, and a 2-node part is settled by its
        two checks without a round.
    recursion_depth_max: deepest split level, the whole node set being 1.
    """

    rounds_total: int = 0
    recursion_depth_max: int = 0


Edges = set[tuple[int, int]]
SeparatorHook = Callable[[tuple[int, int], tuple[int, ...]], None]
# A search plan over a k-node slope, ``(first, hit, miss)``: the walk starts
# at entry ``first``. An entry m >= 1 is a split point, which asks about
# slope[m] and goes on to hit[m] or miss[m]; an entry below 0 is the answer
# ~entry.
Plan = tuple[int, list[int], list[int]]


def sort_by_ancestry(oracle, items: Sequence[int]) -> list[int]:
    """Sort nodes of one directed path ancestor-first, one query per compare."""

    def compare(a: int, b: int) -> int:
        return -1 if oracle.query(a, b) else 1

    return sorted(items, key=cmp_to_key(compare))


def find_bag(
    oracle,
    to_i: Sequence[int],
    to_j: Sequence[int],
    node: int,
    plan_i: Plan | None = None,
    plan_j: Plan | None = None,
) -> int:
    """The path node that an off-path ``node`` hangs from.

    ``to_i`` and ``to_j`` are the path's slopes, each running from the LCA
    down to one endpoint. Reachability along a slope is monotone (a prefix
    of ones), so a search finds the deepest slope node that reaches
    ``node``; the LCA itself is never asked. The ``to_i`` search decides
    unless it stops at the LCA; only then is ``to_j`` searched. Each search
    walks its slope's plan (see ``search_plan``). Without one it walks the
    unit-weight plan, a binary search with ceiling midpoints that asks at
    most ceil(log2 k) queries on a k-node slope; a weighted plan asks at
    most 2 ceil(log2(W / w)) for an answer of weight w out of W.
    """
    query = oracle.query
    at, hit, miss = plan_i or _unit_plan(len(to_i))
    while at > 0:
        at = hit[at] if query(to_i[at], node) else miss[at]
    if at < -1:
        return to_i[~at]
    at, hit, miss = plan_j or _unit_plan(len(to_j))
    while at > 0:
        at = hit[at] if query(to_j[at], node) else miss[at]
    return to_j[~at]


def search_plan(weights: Sequence[int]) -> Plan:
    """The weight-balanced search plan over slope positions 0..k-1.

    The answer is the deepest position whose node reaches the searched
    node, and position 0 is never asked. An interval [lo, hi] of candidate
    answers asks about the last m in (lo, hi] whose weight from lo,
    positions lo..m-1, is at most half the interval's weight (m = lo + 1 if
    none is): Mehlhorn's bisection rule. A hit leaves [m, hi], a miss
    [lo, m-1]. With unit weights m is the ceiling midpoint (lo + hi + 1) // 2.
    Any two queries in a row either end the search or halve the weight
    left, so with integer weights of at least 1 and total W an answer of
    weight w takes at most 2 ceil(log2(W / w)) queries, and the plan's
    recursion is no deeper than that.
    """
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


@lru_cache(maxsize=32)
def _unit_plan(length: int) -> Plan:
    """The plan over a ``length``-node slope with every position weighing 1."""
    return search_plan([1] * length)


def find_even_separator(
    piece_sizes: Sequence[int],
    cuts: Sequence[tuple[int, int]],
    n: int,
    degree_bound: int,
) -> tuple[int, int] | None:
    """First path edge whose cut leaves both sides big enough, if any.

    ``cuts`` are the path's edges in path order, edge r between the pieces
    r and r+1. A side counts as big enough at ceil((n-1)/d) nodes. For
    integer sizes this matches the ideal n/d fraction except when n is 1 mod
    d, where the ideal is unreachable (stars and spiders with a full-degree
    hub have no better split than (n-1)/d) and one fewer node must be
    accepted. An edge meeting this threshold always exists: the heaviest
    component around a centroid has at least ceil((n-1)/d) nodes and at most
    floor(n/2).
    """
    low = -(-(n - 1) // degree_bound)
    high = n - low
    left = 0
    for size, cut in zip(piece_sizes, cuts):
        left += size
        if low <= left <= high:
            return cut
    return None


def path_pieces(
    oracle, part: Sequence[int], to_i: Sequence[int], to_j: Sequence[int], above: Sequence[int]
) -> list[list[int]]:
    """One piece per path node, in path order from i to j: the path node and
    every node hanging from it.

    Cutting all path edges leaves exactly these pieces, each a connected
    subtree. ``above`` (the scan's nodes above both endpoints) joins the
    LCA's piece with no search; every other node is placed by find_bag.
    Each piece lists its path node first, then the rest in ``part`` order.

    The first 16 nodes are placed with unit weights, by plain binary
    searches. Then each slope is reweighed, and again each time the count
    of placed nodes grows eightfold, so a round builds only a few plans. A
    position weighs its piece so far, and the LCA's position on ``to_i``
    also the pieces of ``to_j``, which a search reaches only through it.
    So a node asks fewer queries the more of the part its piece holds, and
    a placement asks at most 2 ceil(log2 s) + 2 queries on a part of s
    nodes (see ``search_plan``). A path whose slopes have at most two nodes
    each has only one plan and is never reweighed.
    """
    pieces = {k: [k] for k in (*reversed(to_i), *to_j[1:])}
    pieces[to_i[0]].extend(above)
    placed = {*pieces, *above}
    todo = [k for k in part if k not in placed]
    plan_i, plan_j = _unit_plan(len(to_i)), _unit_plan(len(to_j))
    stop = 16 if len(to_i) > 2 or len(to_j) > 2 else len(todo)
    start = 0
    while True:
        for k in todo[start:stop]:
            pieces[find_bag(oracle, to_i, to_j, k, plan_i, plan_j)].append(k)
        if stop >= len(todo):
            return list(pieces.values())
        weights_j = [len(pieces[v]) for v in to_j]
        weights_i = [len(pieces[v]) for v in to_i]
        weights_i[0] += sum(weights_j) - weights_j[0]
        plan_i, plan_j = search_plan(weights_i), search_plan(weights_j)
        start, stop = stop, stop * 8


def reconstruct_skeleton_path(
    oracle, nodes: Sequence[int], i: int, j: int
) -> tuple[list[int], list[int], list[int]]:
    """Rebuild the skeleton path between i and j in one membership pass.

    Returns the path as its two slopes ``(to_i, to_j)``, each running from
    the LCA down to one endpoint (an endpoint that is the LCA is its own
    one-node slope), and the nodes found above both endpoints but off the
    path; those hang from the LCA.
    Every other node k is asked whether it is an ancestor of i and of j: an
    ancestor of only i lies on the i side below the LCA, an ancestor of only
    j on the j side, and an ancestor of both at or above the LCA. When one
    endpoint reaches the other, k is asked about the upper one first, and a
    hit settles the lower one too. The LCA is the endpoint that reaches the
    other, or else the deepest common ancestor.
    """
    query = oracle.query
    i_to_j = query(i, j)
    j_to_i = query(j, i)
    if i_to_j and j_to_i:
        raise InconsistentOracleError(f"nodes {i} and {j} each claim a path to the other")
    left, right, above = [], [], []
    if i_to_j or j_to_i:
        lca, lower, slope = (i, j, right) if i_to_j else (j, i, left)
        for k in nodes:
            if k == i or k == j:
                continue
            if query(k, lca):
                above.append(k)
            elif query(k, lower):
                slope.append(k)
    else:
        for k in nodes:
            if k == i or k == j:
                continue
            above_i = query(k, i)
            above_j = query(k, j)
            if above_i and above_j:
                above.append(k)
            elif above_i:
                left.append(k)
            elif above_j:
                right.append(k)
        if not above:
            raise InconsistentOracleError(
                f"nodes {i} and {j} share no ancestor; oracle answers are inconsistent"
            )
        # Common ancestors form one directed path; the deepest is the LCA.
        deepest = 0
        for t in range(1, len(above)):
            if query(above[deepest], above[t]):
                deepest = t
        lca = above.pop(deepest)
    to_i = [lca, *sort_by_ancestry(oracle, left), i] if lca != i else [i]
    to_j = [lca, *sort_by_ancestry(oracle, right), j] if lca != j else [j]
    return to_i, to_j, above


def _check_below(oracle, root: int, node: int) -> None:
    """Raise unless the oracle claims root -> node and denies node -> root."""
    if not oracle.query(root, node) or oracle.query(node, root):
        raise InconsistentOracleError(
            f"node {node} does not hang below its part's root {root}; "
            "oracle answers are inconsistent"
        )


def reconstruct_tree(
    oracle,
    nodes: Iterable[int],
    degree_bound: int,
    rng: random.Random,
    separator_hook: SeparatorHook | None = None,
) -> tuple[Edges, ReconstructionStats]:
    """Recover every edge of the hidden tree spanning ``nodes``.

    ``oracle.query(i, j)`` must be truthy exactly when the oracle claims a
    directed path i -> j; nothing else of an answer is read.
    Each round draws its node i with ``rng.choice`` and first checks that
    the part's root reaches i and i does not reach the root; a 2-node part
    asks only these checks. Each accepted round adds every edge of its path
    and splits its part into one piece per path node, listed with its path
    node first and the rest in ascending order. A part's next round reuses
    the path its last round found and asks only inside the piece, of one
    path node, that holds its new node.
    ``degree_bound`` sets only the balance gate. A node listed twice raises
    ValueError, and a bound that no tree on these nodes fits (below 1, or 1
    with more than two nodes) raises InfeasibleDegreeError, both before any
    query. A part whose rounds keep failing under a bound below the true
    degree doubles its own bound, which its pieces inherit, so the edges
    stay exact. The run is deterministic given the rng state and the
    oracle's answers. ``separator_hook`` (if given) sees the balanced cut
    that let each round through, as a ``(parent, child)`` pair, with the
    node set it was accepted in; the tests audit balance with it.
    An InconsistentOracleError raised on the way carries the counters so far
    as its ``stats``.
    """
    part = sorted(nodes)
    for a, b in zip(part, part[1:]):
        if a == b:
            raise ValueError(f"node {a} is listed more than once")
    check_degree_feasible(len(part), degree_bound)
    stats = ReconstructionStats()
    edges: Edges = set()
    query = oracle.query
    # The tournament: a node replaces the candidate when it reaches it. The
    # root reaches every node and nothing reaches it, so it ends the winner.
    root = part[0] if part else None
    for k in part[1:]:
        if query(k, root):
            root = k
    # Parts still to solve, each with its root, gate bound, failed rounds so
    # far, and what its last round found: the path from its root and the
    # piece that hangs from each path node, each listing its path node first.
    # A fresh part has None there: its path is its root alone, and its piece
    # is the part itself, which lists its root first. The whole node set is
    # sorted instead, so it starts with a root-first copy as its piece. A
    # failed part goes back on top, so it is retried next. Pieces are pushed
    # last to first, so they are solved in path order; that order fixes which
    # nodes rng draws. Only parts of 3 or more nodes run rounds, and those
    # exist only at bounds of 2 or more, so the gate never divides by zero.
    whole = [root, *(k for k in part if k != root)]
    stack = [(part, root, 1, degree_bound, 0, ([root], [whole]))]
    try:
        while stack:
            part, root, depth, bound, failed, known = stack.pop()
            stats.recursion_depth_max = max(stats.recursion_depth_max, depth)
            size = len(part)
            if size <= 1:
                continue
            others = [k for k in part if k != root]
            if size == 2:
                # With the root known there is nothing left to sample.
                _check_below(oracle, root, others[0])
                edges.add((root, others[0]))
                continue
            stats.rounds_total += 1
            i = rng.choice(others)
            _check_below(oracle, root, i)
            path, pieces = known or ([root], [part])
            # The known path r -> p, to the path node p whose piece holds i,
            # is a prefix of the path r -> i. The rest of it runs through p's
            # piece, and the known branch below p hangs off p beside it. The
            # root's piece, often the largest, holds what no other piece does.
            t = len(path) - 1
            while t and i not in pieces[t]:
                t -= 1
            p, piece = path[t], pieces[t]
            branch, branch_pieces = path[t + 1 :], pieces[t + 1 :]
            if i == p:
                slope, below = [p], [piece]
            else:
                # Every node of p's piece lies below p, so the path p -> i is
                # p, i and the nodes that reach i: one query per node.
                between = [k for k in piece[1:] if k != i and query(k, i)]
                slope = [p, *sort_by_ancestry(oracle, between), i]
                below = path_pieces(oracle, piece, slope, [p], [])[::-1]
            # p's new piece is what it kept of its old one and the branch.
            own = below[0]
            merged = [p, *sorted(chain(own[1:], *branch_pieces))] if branch else own
            path = [*path[:t], *slope]
            pieces = [*pieces[:t], merged, *below[1:]]
            # The gate reads the path's (parent, child) edges and its pieces
            # from i up to r.
            cuts = [*zip(path, path[1:])][::-1]
            sep = find_even_separator([len(q) for q in reversed(pieces)], cuts, size, bound)
            if sep is None:
                # A correct bound b needs b^2/(b-1) rounds on average. After
                # four times that many failures the part's gate doubles b; at
                # b >= size - 1 it accepts any path. Any true edge is a correct
                # cut, so the pieces keep the bound the part was accepted at.
                failed += 1
                if failed >= 4 * bound * bound // (bound - 1):
                    bound, failed = 2 * bound, 0
                stack.append((part, root, depth, bound, failed, (path, pieces)))
                continue
            if separator_hook is not None:
                separator_hook(sep, tuple(part))
            edges.update(cuts)
            # Each piece is rooted at its path node. p's piece keeps the
            # branch below p as its known path; every other piece is fresh.
            pushed = [(q, v, depth + 1, bound, 0, None) for v, q in zip(path, pieces)]
            pushed[t] = (merged, p, depth + 1, bound, 0, ([p, *branch], [own, *branch_pieces]))
            stack.extend(pushed)
    except InconsistentOracleError as err:
        err.stats = stats
        raise
    return edges, stats


def reconstruct_weighted(
    oracle,
    nodes: Iterable[int],
    degree_bound: int,
    rng: random.Random,
) -> tuple[Edges, dict[tuple[int, int], float], ReconstructionStats]:
    """Recover edges and exact weights from an additive oracle.

    The driver reads each path sum as a truth value, which is sound because
    weights are strictly positive; the weights themselves come from one more
    query per recovered edge, stored verbatim.
    """
    edges, stats = reconstruct_tree(oracle, nodes, degree_bound, rng)
    weights = {(p, c): oracle.query(p, c) for (p, c) in sorted(edges)}
    return edges, weights, stats
