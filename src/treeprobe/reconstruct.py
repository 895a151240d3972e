"""Tree reconstruction from path queries.

The driver is a Las-Vegas divide and conquer: sample a random node pair,
rebuild the skeleton path between them through the oracle, put every other
node into the piece of the path node it hangs from, and accept the round if
some path edge has two balanced enough sides. A path is held as its two
slopes, each running from the lowest common ancestor (LCA) down to one
endpoint, so consecutive slope nodes are (parent, child) edges as they
stand. Parts still to solve wait on a stack, and each pass of the driver
loop runs one round on the top part: an accepted round keeps every path
edge and pushes each piece, a connected subtree; a failed round pushes its
part back. With a degree bound d the balanced cut leaves sides no larger
than a (d-1)/d fraction and every piece lies inside one side, so the split
depth stays logarithmic and the whole thing needs O(d n log^2 n) queries in
expectation. Each round scans its part once for the path and once for the
pieces, and asks nothing twice: nodes the path scan found above both
endpoints join the LCA's piece without a bag search.

A bound below the true degree can leave no balanced edge on any path. Any
true edge is a correct cut, so the bound only sets the gate: a part whose
rounds keep failing doubles its gate's bound, which accepts any path once it
reaches the part size less one, and its pieces start from the bound it was
accepted at. Every input therefore ends. A bound of 1 fits only two nodes
and gates as 2, where they pass.

The driver reads every answer only as a truth value, so all three regimes
run on it unchanged: an exact bit, a noisy majority bit, or an additive path
sum, positive exactly when the path exists. The additive regime then reads
each recovered edge's weight with one more query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Iterable, Sequence

from .errors import InconsistentOracleError
from .trees import check_degree_feasible


@dataclass
class ReconstructionStats:
    """Counters from one reconstruction run.

    rounds_total: sampling rounds summed over all parts; every part of
        >= 2 nodes runs at least one.
    recursion_depth_max: deepest split level, the whole node set being 1.
    """

    rounds_total: int = 0
    recursion_depth_max: int = 0


Edges = set[tuple[int, int]]
SeparatorHook = Callable[[tuple[int, int], tuple[int, ...]], None]


def sort_by_ancestry(oracle, items: Sequence[int]) -> list[int]:
    """Sort nodes of one directed path ancestor-first, one query per compare."""

    def compare(a: int, b: int) -> int:
        return -1 if oracle.query(a, b) else 1

    return sorted(items, key=cmp_to_key(compare))


def find_bag(oracle, to_i: Sequence[int], to_j: Sequence[int], node: int) -> int:
    """The path node that an off-path ``node`` hangs from.

    ``to_i`` and ``to_j`` are the path's slopes, each running from the LCA
    down to one endpoint. Reachability along a slope is monotone (a prefix
    of ones), so a binary search finds the deepest slope node above ``node``
    in at most ceil(log2 k) queries. The ``to_i`` search decides unless it
    stops at the LCA; only then is ``to_j`` searched.
    """
    at = _deepest_hit(oracle, to_i, node)
    if at > 0:
        return to_i[at]
    return to_j[_deepest_hit(oracle, to_j, node)]


def _deepest_hit(oracle, slope: Sequence[int], node: int) -> int:
    """Largest 0-based index t on a directed path with Q(slope[t], node) = 1.

    Returns 0 when no position qualifies; slope[0] itself is never asked. A
    binary search over [lo, hi] with ceiling midpoints: a hit moves lo to
    the midpoint, a miss moves hi just below it.
    """
    lo, hi = 0, len(slope) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if oracle.query(slope[mid], node):
            lo = mid
        else:
            hi = mid - 1
    return lo


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
    """
    pieces = {k: [k] for k in (*reversed(to_i), *to_j[1:])}
    pieces[to_i[0]].extend(above)
    placed = {*pieces, *above}
    for k in part:
        if k not in placed:
            pieces[find_bag(oracle, to_i, to_j, k)].append(k)
    return list(pieces.values())


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
    Each accepted round adds every edge of its skeleton path and splits its
    part into one piece per path node. ``degree_bound`` sets only the
    balance gate. A node listed twice raises ValueError, and a bound that no
    tree on these nodes fits (below 1, or 1 with more than two nodes) raises
    InfeasibleDegreeError, both before any query;
    a bound of 1 on two nodes gates as 2, and a part whose rounds keep
    failing under a bound below the true degree doubles its own bound, which
    its pieces inherit, so the edges stay exact. The run is deterministic
    given the rng state and the oracle's answers. ``separator_hook`` (if
    given) sees the balanced cut that let each round through, as a
    ``(parent, child)`` pair, with the node set it was accepted in; the tests
    audit balance with it.
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
    # Parts still to solve, each with its gate bound and failed rounds so far.
    # A failed part goes back on top, so it is retried next. Pieces are
    # pushed last to first, so they are solved in path order; that order
    # fixes which pairs rng draws. Starting the gate at 2 or more keeps the
    # doubling below from dividing by zero.
    stack = [(part, 1, max(degree_bound, 2), 0)]
    try:
        while stack:
            part, depth, bound, failed = stack.pop()
            stats.recursion_depth_max = max(stats.recursion_depth_max, depth)
            size = len(part)
            if size <= 1:
                continue
            stats.rounds_total += 1
            i, j = rng.sample(part, 2)
            to_i, to_j, above = reconstruct_skeleton_path(oracle, part, i, j)
            pieces = path_pieces(oracle, part, to_i, to_j, above)
            # The path's (parent, child) edges in path order, from i to j.
            cuts = [*reversed([*zip(to_i, to_i[1:])]), *zip(to_j, to_j[1:])]
            sep = find_even_separator([len(p) for p in pieces], cuts, size, bound)
            if sep is None:
                # A correct bound b needs b^2/(b-1) rounds on average. After
                # four times that many failures the part's gate doubles b; at
                # b >= size - 1 it accepts any path. Any true edge is a correct
                # cut, so the pieces keep the bound the part was accepted at.
                failed += 1
                if failed >= 4 * bound * bound // (bound - 1):
                    bound, failed = 2 * bound, 0
                stack.append((part, depth, bound, failed))
                continue
            if separator_hook is not None:
                separator_hook(sep, tuple(part))
            edges.update(cuts)
            stack.extend((piece, depth + 1, bound, 0) for piece in reversed(pieces))
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
