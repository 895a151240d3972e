"""Tree reconstruction from path queries.

The driver is a Las-Vegas divide and conquer: sample a random node pair,
rebuild the skeleton path between them through the oracle, weigh how many
off-path nodes hang from each path position, and cut at an edge whose two
sides are balanced enough. Both sides go on a stack of parts still to
solve, and the driver loops until the stack is empty. With a degree bound d
the cut leaves pieces no larger than a (d-1)/d fraction, so the split depth
stays logarithmic and the whole thing needs O(d n log^2 n) queries in
expectation. Each round scans its part once for the path and once for the
bags, and asks nothing twice: nodes the path scan found above both endpoints
hang from the LCA without a bag search, and the split reuses the bag
positions.

The driver reads every answer only as a truth value, so all three regimes
run on it unchanged: an exact bit, a noisy bit that a ``MajorityOracle``
cleans up with per-pair votes, or an additive path sum, positive exactly
when the path exists. The additive regime then reads each recovered edge's
weight with one more query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InconsistentOracleError
from .trees import SkeletonPath, check_degree_feasible


class SeparatorEdge(NamedTuple):
    """A cut edge in its true orientation."""

    parent: int
    child: int


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
SeparatorHook = Callable[[SeparatorEdge, tuple[int, ...]], None]


def sort_by_ancestry(oracle, items: Sequence[int]) -> list[int]:
    """Sort nodes of one directed path ancestor-first, one query per compare."""

    def compare(a: int, b: int) -> int:
        return -1 if oracle.query(a, b) else 1

    return sorted(items, key=cmp_to_key(compare))


def find_bag(oracle, path_left: Sequence[int], path_right: Sequence[int], node: int) -> int:
    """1-based path position that an off-path ``node`` hangs from.

    ``path_left`` runs from the LCA to the head of the path and
    ``path_right`` from the LCA to its tail. Reachability along each slope
    is monotone (a prefix of ones), so a binary search finds the deepest
    slope node above ``node`` in at most ceil(log2 k) queries. The left
    search decides unless it stops at the LCA; only then is the right slope
    searched. Left slope position s is path position len(path_left) + 1 - s
    and right slope position s is len(path_left) + s - 1.
    """
    at = _deepest_hit(oracle, path_left, node)
    if at > 1:
        return len(path_left) + 1 - at
    return len(path_left) + _deepest_hit(oracle, path_right, node) - 1


def _deepest_hit(oracle, slope: Sequence[int], node: int) -> int:
    """Largest 1-based index t on a directed path with Q(slope[t], node) = 1.

    Returns 1 when no position qualifies. A binary search over [lo, hi] with
    ceiling midpoints: a hit moves lo to the midpoint, a miss moves hi just
    below it.
    """
    lo, hi = 1, len(slope)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if oracle.query(slope[mid - 1], node):
            lo = mid
        else:
            hi = mid - 1
    return lo


def find_even_separator(
    bag_sizes: Sequence[int],
    path: SkeletonPath,
    n: int,
    degree_bound: int,
) -> SeparatorEdge | None:
    """First path edge whose cut leaves both sides big enough, if any.

    A side counts as big enough at ceil((n-1)/d) nodes. For integer sizes
    this matches the ideal n/d fraction except when n is 1 mod d, where the
    ideal is unreachable (stars and spiders with a full-degree hub have no
    better split than (n-1)/d) and one fewer node must be accepted. An edge
    meeting this threshold always exists: the heaviest component around a
    centroid has at least ceil((n-1)/d) nodes and at most floor(n/2).

    Edges left of the LCA point back toward the sequence head, so the cut
    between positions r and r+1 is oriented (x_{r+1}, x_r) there and
    (x_r, x_{r+1}) from the LCA on.
    """
    if degree_bound < 2:
        return None
    low = -(-(n - 1) // degree_bound)
    high = n - low
    seq, lca = path.sequence, path.lca_index
    left = 0
    for r in range(1, len(seq)):
        left += bag_sizes[r - 1]
        if low <= left <= high:
            a, b = seq[r - 1], seq[r]
            if r < lca:
                return SeparatorEdge(parent=b, child=a)
            return SeparatorEdge(parent=a, child=b)
    return None


def split_tree(
    part: Sequence[int],
    positions: dict[int, int],
    separator: SeparatorEdge,
    lca_index: int,
):
    """Partition ``part`` across a path edge by bag position, asking nothing.

    ``positions`` maps every node to the 1-based path position it hangs
    from. The child's side (child first) is the run of positions that starts
    at the child and goes away from the LCA; everything else is kept.
    """
    child = separator.child
    at = positions[child]
    away_right = at > lca_index
    keep, below = [], [child]
    for k in part:
        if k == child:
            continue
        t = positions[k]
        if (t >= at) if away_right else (t <= at):
            below.append(k)
        else:
            keep.append(k)
    return keep, below


def reconstruct_skeleton_path(
    oracle, nodes: Sequence[int], i: int, j: int
) -> tuple[SkeletonPath, list[int]]:
    """Rebuild the skeleton path between i and j in one membership pass.

    Returns the path, oriented i -> j like the ground truth, and the nodes
    found above both endpoints but off the path; those hang from the LCA.
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
    apex = []
    if i_to_j or j_to_i:
        upper, lower, slope = (i, j, right) if i_to_j else (j, i, left)
        for k in nodes:
            if k == i or k == j:
                continue
            if query(k, upper):
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
        apex = [above.pop(deepest)]
    left_sorted = sort_by_ancestry(oracle, left)
    seq = [i, *reversed(left_sorted), *apex, *sort_by_ancestry(oracle, right), j]
    if i_to_j:
        lca_index = 1
    elif j_to_i:
        lca_index = len(seq)
    else:
        lca_index = 2 + len(left_sorted)
    return SkeletonPath(tuple(seq), lca_index), above


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
    ``degree_bound`` must be valid for the hidden tree; a bound that no tree
    on these nodes fits (below 1, or 1 with more than two nodes) raises
    InfeasibleDegreeError before any query. The run is deterministic given
    the rng state and the oracle's answers.
    ``separator_hook`` (if given) sees every accepted cut together with the
    node set it was accepted in, which is how the tests audit balance.
    An InconsistentOracleError raised on the way carries the counters so far
    as its ``stats``.
    """
    part = sorted(nodes)
    check_degree_feasible(len(part), degree_bound)
    stats = ReconstructionStats()
    edges: Edges = set()
    # Parts still to solve. The kept side is pushed last, so it is solved in
    # full before the child's side; that order fixes which pairs rng draws.
    stack = [(part, 1)]
    try:
        while stack:
            part, depth = stack.pop()
            stats.recursion_depth_max = max(stats.recursion_depth_max, depth)
            size = len(part)
            if size <= 1:
                continue
            if size == 2 and degree_bound == 1:
                # The balance interval is empty at d=1; one query settles the edge.
                stats.rounds_total += 1
                a, b = part
                sep = SeparatorEdge(a, b) if oracle.query(a, b) else SeparatorEdge(b, a)
                if separator_hook is not None:
                    separator_hook(sep, tuple(part))
                edges.add(tuple(sep))
                continue

            while True:
                stats.rounds_total += 1
                i, j = rng.sample(part, 2)
                path, above = reconstruct_skeleton_path(oracle, part, i, j)
                seq, lca = path.sequence, path.lca_index
                path_left = seq[:lca][::-1]  # LCA first, descending toward the head
                path_right = seq[lca - 1 :]  # LCA first, descending toward the tail
                positions = {k: t for t, k in enumerate(seq, 1)}
                positions.update(dict.fromkeys(above, lca))
                bag_sizes = [1] * len(seq)
                bag_sizes[lca - 1] += len(above)
                for k in part:
                    if k in positions:
                        continue
                    spot = find_bag(oracle, path_left, path_right, k)
                    positions[k] = spot
                    bag_sizes[spot - 1] += 1
                sep = find_even_separator(bag_sizes, path, size, degree_bound)
                if sep is not None:
                    break

            if separator_hook is not None:
                separator_hook(sep, tuple(part))
            keep, below = split_tree(part, positions, sep, lca)
            edges.add(tuple(sep))
            stack.append((below, depth + 1))
            stack.append((keep, depth + 1))
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
