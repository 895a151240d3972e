"""Tree reconstruction from path queries.

The driver is a Las-Vegas divide and conquer over parts whose root it knows.
A round on a part with root r samples one other node i, rebuilds the path
r -> i with one membership query per other node, puts every other node into
the piece of the path node it hangs from, and accepts the round if some
known edge has two balanced enough sides. The first round finds the root of
the whole node set on the way: it samples i from every node, and the nodes
that reach i, sorted, are the path down to i from the root, which comes
first; if no node reaches i, i is the root, and the round fails on a
one-node path.
Each piece is a subtree rooted at its path node, so no later part looks for
its root, and the accepted round that leaves a piece of 2 or 3 nodes
settles it: a 2-node piece is one edge, and a 3-node piece [q, a, b] is a
chain or a cherry below q, told apart by Q(a, b), then Q(b, a) on a no.
With random labels that asks 1.5 queries for a chain and 2 for a cherry,
what a round on it would, and draws nothing. Parts still to solve wait on
a stack, the whole node set first, and each pass of the driver loop runs
one round on the top part: an accepted round pushes each piece of 4 or
more nodes as a fresh part; a failed round pushes its part back. So every
part on the stack but the whole node set has 4 or more nodes.
A node set of two nodes has no round: the driver orients it before its loop
by asking both ways. With a degree bound d the balanced cut leaves sides no
larger than a (d-1)/d fraction and every piece lies inside one side, so the
split depth stays logarithmic and the whole thing needs O(d n log^2 n)
queries in expectation.

Every part lists its root first, and a path is one list from a part's root
down, so consecutive path nodes are (parent, child) edges as they stand. A
part keeps every piece its rounds found, each listing its path node first.
The path nodes form a subtree from the part's root down, and each edge
between them is added in the round that finds it, as no later round drops
it. A round's node i lies in the piece of one path node p, so the path
r -> p is known and the rest of r -> i runs through p's piece: the round
scans and places only that piece. p keeps what hangs from it, each new path
node takes a new piece, and the known pieces below p stay where they hang.
A node on a known path costs nothing. So no round asks again what an
earlier one heard: on consistent answers the only pairs a run asks twice
are pairs that one sort compares twice.

A part also keeps its best cut: the known edge whose smaller side is
largest, with that side's size. The nodes below the edge into a new path
node are the new pieces from it down, and every older cut keeps its sides,
as every new path node comes out of p's piece. So a round updates the cut
from its own path alone, and the gate reads only the part's size and that
side.

No round checks its answers. Every returned edge is instead vouched for by
an answer the run heard: the scan's on the edge into i, the sort's
comparison on every other edge it found, for the edge from p into the
path, the yes that put the path's next node into p's piece, and for the
lower edge of a settled chain, the yes that settled it. Each member of a
piece was put there by a yes from its path node, except in the pieces of
the run's root r: no placement asks a part's root, and r heads the whole
node set. So only the edges out of r can lack a voucher, and the first
round's scan and sort vouch for the one into the first node of its path.
After the last round the audit reads its list off the returned edges: it
asks Q(r, c) once for every other returned edge (r, c), in ascending order
of c, and a denial raises. It never asks a pair the run heard before, so an
edge that a lie vouches for is not asked again: the audit catches only a
liar that denies an edge out of the root.

A node is put into its piece by a search down the path for the deepest path
node that reaches it. On a two-node path that is one query to the lower
node, asked for every node in one pass; nearly all of a star's rounds are
of this kind. On a longer path a round's first 16 nodes take plain binary
searches. After that the search is weighted by the sizes the pieces have
reached so far (Mehlhorn's bisection rule), so nodes of the big pieces, the
root's on random trees and the sampled node's on chains, cost fewer
queries. Each search walks a plan built in one loop, with no recursion.
Every placement still asks O(log n) queries, which the bound above rests
on.

A bound below the true degree can leave no balanced edge on any path. Any
true edge is a correct cut, so the bound only sets the gate: when one part's
rounds keep failing, the run doubles its gate's bound for that part and
every later one, and a bound of the part size less one accepts any path.
Every input therefore ends. A bound of 1 fits only two nodes, which asking
both ways settles.

The exact and noisy regimes read every answer only as a truth value: an
exact bit or a noisy vote's bit. The additive regime reads path sums, which
are positive exactly when the path exists, and runs no rounds, reads no
degree bound and draws nothing. Its root r wins a tournament: node 0 is the
first candidate, each later node k with Q(k, candidate) a yes the next, and
r reaches every node. Then it reads every depth D(k) = Q(r, k) but that of
the node r beat, which r's yes was. The oracle sums a path from its deep
end, and float addition is monotone, so an ancestor of k is never deeper
than k, bit for bit, though depths can tie. The nodes so go in by ascending
depth, ties by id, and the nodes in at any time form a known tree, the
hidden tree restricted to them. Each new node only looks for its deepest
ancestor in it.

That search runs down heavy paths (Sleator and Tarjan). Every node keeps
its children largest subtree first, the first being its heavy child, and a
heavy path runs from its head through heavy children to a leaf.
Reachability along a path is a prefix of yeses, and the path is split by
Mehlhorn's rule, as in search_plan, where a path node weighs its subtree
less its heavy child's: one bisection on the path's negated sizes. At the
deepest path node that reaches k, the search asks the light children,
largest first, and a yes starts it again on that child's heavy path. k
hangs from the node where it ends, and the last yes on that node is the
edge's weight, or k's depth under the root. Only a node of k's own depth
can already sit below k, and it hangs from k's parent, so k asks each child
of its parent at its depth and moves under itself those it reaches. So each
returned weight is a yes heard on its own edge, stored verbatim. A depth
read of 0.0 below the root raises.

A lie told after the depth reads can leave a tree that agrees with every
answer heard: an oracle that denies every later path hangs each later node
from the root, with its depth as its weight. The edges out of the root are
the ones whose only yes came before any insertion, as every other edge's
yes was heard when its child went in, or when a node of the child's depth
took it. So an audit after the last insertion asks each edge (root, c)
once more, in ascending order of c, as the rounds' audit does, and an
answer that is falsy or differs from the stored weight, bit for bit,
raises. The root always has a child, so a liar that denies every path from
some point on is caught.

The cost is O(d n log n) queries, a log below the rounds' bound. A
weight-balanced search that ends at a position of weight w out of W asks at
most 2 ceil(log2(W / w)) queries, and the light child a search starts again
at is smaller than w, so over one node's search the logs telescope to
2 log2 n, plus 2 per heavy path. A light child holds at most half of its
parent's subtree, so a search crosses at most log2 n light edges. With
distinct depths the nodes in are closed under ancestors, so the known tree
is a subtree of the hidden one, and each path's end has at most d - 1 light
children to ask. One node so asks O(d log n) queries, and the tournament
and the depth reads add 2n - 3, 2n - 2 if node 0 is the root, the audit at
most d more. Tied depths add one ask per tied child of the parent. A star
asks each pair of its leaves once, C(n - 1, 2) in all, the regime's floor.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import accumulate
from typing import Sequence

from .errors import InconsistentOracleError
from .trees import check_degree_feasible, check_node_count


@dataclass
class ReconstructionStats:
    """Counters from one reconstruction run.

    rounds_total: sampling rounds summed over all parts, each of >= 4
        nodes but the whole node set. A piece of 2 or 3 nodes runs none:
        the accepted round that leaves it settles it, and a node set of two
        nodes is oriented before any round.
    recursion_depth_max: deepest split level, the whole node set being 1
        and each piece one level below the part it came from. A settled
        piece of 2 or 3 nodes is the last level of its branch.
    audit_queries: queries after the last round, all the audit's: one per
        returned edge out of the root but the one the first round's path
        starts with, which that round heard.

    An additive run has no rounds and no split, so it reports
    ``rounds_total`` 0 and ``recursion_depth_max`` 1; its audit asks each
    edge out of the root, so ``audit_queries`` is the root's degree.
    """

    rounds_total: int = 0
    recursion_depth_max: int = 1
    audit_queries: int = 0


Edges = set[tuple[int, int]]
# A search plan over a k-node path, ``(first, hit, miss)``: the walk starts
# at entry ``first``. An entry m >= 1 is a split point, which asks about
# path[m] and goes on to hit[m] or miss[m]; an entry below 0 is the answer
# ~entry.
Plan = tuple[int, list[int], list[int]]


def sort_by_ancestry(oracle, items: Sequence[int]) -> list[int]:
    """Sort nodes of one directed path ancestor-first, one query per compare."""
    if len(items) < 2:
        return list(items)
    if len(items) == 2:
        # The one comparison sorted() asks of two items.
        a, b = items
        return [b, a] if oracle.query(b, a) else [a, b]

    def compare(a: int, b: int) -> int:
        return -1 if oracle.query(a, b) else 1

    return sorted(items, key=cmp_to_key(compare))


def search_plan(weights: Sequence[int]) -> Plan:
    """The weight-balanced search plan over path positions 0..k-1.

    The answer is the deepest position whose node reaches the searched
    node, and position 0 is never asked. An interval [lo, hi] of candidate
    answers asks about the last m in (lo, hi] whose weight from lo,
    positions lo..m-1, is at most half the interval's weight (m = lo + 1 if
    none is): Mehlhorn's bisection rule. A hit leaves [m, hi], a miss
    [lo, m-1]. With unit weights m is the ceiling midpoint (lo + hi + 1) // 2.
    Any two queries in a row either end the search or halve the weight
    left, so with integer weights of at least 1 and total W an answer of
    weight w takes at most 2 ceil(log2(W / w)) queries.

    The plan is built in one loop over a stack of intervals of two or more
    positions, each with the slot its split point fills: the plan's start,
    or hit[m] or miss[m] of the split point m above it. An interval of one
    position fills its slot with its answer and is never pushed.
    """
    prefix = [0, *accumulate(weights)]
    hit = [0] * len(weights)
    miss = [0] * len(weights)
    last = len(weights) - 1
    if not last:
        return ~0, hit, miss
    first = [0]
    todo = [(0, last, first, 0)]
    while todo:
        lo, hi, slot, at = todo.pop()
        m = bisect_right(prefix, (prefix[lo] + prefix[hi + 1]) // 2, lo + 1, hi + 1) - 1
        if m <= lo:
            m = lo + 1
        slot[at] = m
        if m < hi:
            todo.append((m, hi, hit, m))
        else:
            hit[m] = ~m
        if lo < m - 1:
            todo.append((lo, m - 1, miss, m))
        else:
            miss[m] = ~lo
    return first[0], hit, miss


@lru_cache(maxsize=32)
def _unit_plan(length: int) -> Plan:
    """The plan over a ``length``-node path with every position weighing 1."""
    return search_plan([1] * length)


def find_even_separator(
    part: Sequence[int], side: int, cut: tuple[int, int] | None, degree_bound: int
) -> tuple[int, int] | None:
    """``cut`` if its smaller side, ``side`` nodes of ``part``, is big enough.

    ``cut`` is the known edge of the part whose smaller side is largest, or
    None with ``side`` 0 while the part knows no edge. A side counts as big
    enough at ceil((n-1)/d) nodes on a part of n nodes. For integer sizes
    this matches the ideal n/d fraction except when n is 1 mod d, where the
    ideal is unreachable (stars and spiders with a full-degree hub have no
    better split than (n-1)/d) and one fewer node must be accepted. An edge
    meeting this threshold always exists: the heaviest component around a
    centroid has at least ceil((n-1)/d) nodes and at most floor(n/2).
    """
    if side >= -(-(len(part) - 1) // degree_bound):
        return cut
    return None


def path_pieces(oracle, part: Sequence[int], path: Sequence[int]) -> list[list[int]]:
    """One piece per path node, in path order: the path node and every node
    of ``part`` hanging from it.

    Cutting all path edges leaves exactly these pieces, each a connected
    subtree. Each piece lists its path node first, then the rest in ``part``
    order. ``path`` runs from its part's root down, and reachability along
    it is monotone (a prefix of ones), so each node off the path is placed
    under the deepest path node that reaches it; the root is never asked.

    A path of one node asks nothing: its plan is one answer, so the walk
    puts every other node in its one piece. A path of two nodes has one
    split, so each node off it asks ``Q(path[1], k)`` once, in ``part``
    order, in one pass. On a longer path each node walks a ``search_plan`` over the
    path's positions. The first 16 nodes are placed with unit weights, by
    plain binary searches with ceiling midpoints that ask at most
    ceil(log2 k) queries on a k-node path. Then the path is reweighed, and
    again each time the count of placed nodes grows eightfold, so a round
    builds only a few plans. A position weighs its piece so far, so a node
    asks fewer queries the more of the part its piece holds: a weighted
    plan asks at most 2 ceil(log2(W / w)) for an answer of weight w out of
    W, so at most 2 ceil(log2 s) + 2 on a part of s nodes.
    """
    query = oracle.query
    if len(path) == 2:
        r, last = path
        top, below = [r], [last]
        for k in part:
            if k != r and k != last:
                if query(last, k):
                    below.append(k)
                else:
                    top.append(k)
        return [top, below]
    pieces = [[k] for k in path]
    on_path = set(path)
    todo = [k for k in part if k not in on_path]
    first, hit, miss = _unit_plan(len(path))
    start, stop = 0, 16
    while True:
        for k in todo[start:stop]:
            at = first
            while at > 0:
                at = hit[at] if query(path[at], k) else miss[at]
            pieces[~at].append(k)
        if stop >= len(todo):
            return pieces
        first, hit, miss = search_plan(list(map(len, pieces)))
        start, stop = stop, stop * 8


def reconstruct_skeleton_path(oracle, nodes: Sequence[int], i: int) -> list[int]:
    """The nodes of ``nodes`` that reach ``i``, sorted by ancestry, then ``i``.

    One query per other node, then the sort. On a subtree that holds ``i``
    this is the path from the subtree's root down to ``i``, so its first
    node is the root, and it is ``[i]`` when ``i`` is the root. A round on a
    part whose root it knows passes the part without its root and puts the
    root in front.
    """
    query = oracle.query
    between = [k for k in nodes if k != i and query(k, i)]
    return [*sort_by_ancestry(oracle, between), i]


def reconstruct_tree(
    oracle,
    n: int,
    degree_bound: int,
    rng: random.Random,
) -> tuple[Edges, ReconstructionStats]:
    """Recover every edge of the hidden tree on nodes ``0 .. n-1``.

    ``oracle.query(i, j)`` must be truthy exactly when the oracle claims a
    directed path i -> j; nothing else of an answer is read.
    Each round draws its node i with ``rng.choice``. The first round draws
    from the whole node set in ascending order and asks every other node
    whether it reaches i: the first node of the path it finds is the root.
    If no node reaches i, i is the root. From then on the node set is one
    part, its root first and the rest in ascending order. A node set of two
    nodes runs no round: the driver asks both ways before its loop instead,
    and raises InconsistentOracleError unless exactly one answer is yes.
    Each round adds the edges of the path it finds and hands its part's
    best known cut, with that cut's smaller side, to
    ``find_even_separator``, and is accepted if that passes the cut. An
    accepted round settles each piece of two or three nodes (see the
    module docstring) and pushes each larger piece, its path node first
    and the rest in ascending order. A part keeps every piece its rounds
    found, and its next round asks only inside the one that holds its new
    node.
    No round checks its answers. After the last round the audit asks
    Q(root, c) once for every returned edge (root, c) but the one the first
    round's path starts with, in ascending order of c (see the module
    docstring), and a denial raises InconsistentOracleError.
    ``stats.audit_queries`` counts the audit's queries: none on a chain
    unless the first draw is the root, about one per leaf on a star.
    ``degree_bound`` sets only the balance gate. An ``n`` that is not an
    int, or is negative, and a bound that no tree on ``n`` nodes fits (not
    an int, below 1, or 1 with more than two nodes) raise InvalidTreeError
    from :func:`check_degree_feasible` before any query. A part whose
    rounds keep failing under a bound below the true degree doubles the
    run's bound, for it and every later part, so the edges stay exact. The
    run is deterministic given the rng state and the oracle's answers. An
    InconsistentOracleError raised on the way carries the counters so far
    as its ``stats``.
    """
    check_degree_feasible(n, degree_bound)
    stats = ReconstructionStats()
    edges: Edges = set()
    if n < 3:
        if n == 2:
            # A node set of two nodes is oriented by asking both ways.
            backward = oracle.query(1, 0)
            forward = oracle.query(0, 1)
            if bool(backward) == bool(forward):
                raise InconsistentOracleError(
                    "exactly one of nodes 0 and 1 must reach the other; "
                    "oracle answers are inconsistent",
                    stats,
                )
            edges.add((1, 0) if backward else (0, 1))
        return edges, stats
    choice = rng.choice
    query = oracle.query
    add = edges.add
    # Parts still to solve, each listing its root first, with the pieces
    # its rounds found and its best cut with that cut's smaller side. A
    # fresh part is its own one piece and knows no edge. The whole node set
    # has no pieces instead, as its root is not known, and stays in
    # ascending order until its first round finds the root. A failed part
    # goes back on top, so it is retried next.
    # Pieces of four or more nodes are pushed in the order they were found,
    # so the last is solved first; that order fixes which nodes rng draws.
    # A piece of two or three nodes is settled instead, so every part on the
    # stack runs a round, and parts of 3 or more nodes exist only at bounds
    # of 2 or more, so the gate never divides by zero. The gate's bound and
    # the failed rounds in a row belong to the run, not to a part.
    stack = [(list(range(n)), 1, [], None, 0)]
    push = stack.append
    bound, failed = degree_bound, 0
    while stack:
        part, depth, pieces, cut, side = stack.pop()
        stats.rounds_total += 1
        if pieces:
            i = choice(part[1:])
            # The known path r -> p, to the path node p whose piece holds i,
            # is a prefix of the path r -> i, and the rest of it runs through
            # p's piece. The root's piece, often the largest, holds what no
            # other piece does.
            t = len(pieces) - 1
            while t and i not in pieces[t]:
                t -= 1
            p = pieces[t][0]
            if i == p:
                tail = [p]
            else:
                tail = [p, *reconstruct_skeleton_path(oracle, pieces[t][1:], i)]
        else:
            # The root reaches i, so it heads the path to i; with no node
            # reaching i, i is the root and the path is i alone. The scan
            # and the sort vouch for the whole path, the edge out of the
            # root too. From here on the part is fresh, root first.
            i = choice(part)
            tail = reconstruct_skeleton_path(oracle, part, i)
            root = p = tail[0]
            heard = tail[1:2]
            part = [p, *(k for k in part if k != p)]
            pieces, t = [part], 0
        # p keeps what hangs from it, and each tail node below p takes a new
        # piece. The nodes below the edge into tail[r] are the new pieces
        # from r down, and no older cut changes size.
        below = path_pieces(oracle, pieces[t], tail)
        under = len(pieces[t]) - len(below[0])
        pieces[t] = below[0]
        for r in range(1, len(tail)):
            edge = (tail[r - 1], tail[r])
            add(edge)
            small = min(under, len(part) - under)
            if small > side:
                cut, side = edge, small
            under -= len(below[r])
            pieces.append(below[r])
        if find_even_separator(part, side, cut, bound) is None:
            # A correct bound b needs b^2/(b-1) rounds on average. After
            # four times that many failures in a row, all this part's as a
            # failed part is retried next, the run's gate doubles b for this
            # part and every later one; at b >= size - 1 it accepts any
            # known edge.
            failed += 1
            if failed >= 4 * bound * bound // (bound - 1):
                bound, failed = 2 * bound, 0
            push((part, depth, pieces, cut, side))
            continue
        failed = 0
        # One level deeper, each piece of two or three nodes is settled, and
        # each piece of four or more is pushed as a fresh part. Below q[0], a
        # three-node piece is a chain or a cherry: Q(a, b), then Q(b, a),
        # tells which.
        depth += 1
        if depth > stats.recursion_depth_max:
            stats.recursion_depth_max = depth
        for q in pieces:
            size = len(q)
            if size == 2:
                add((q[0], q[1]))
            elif size == 3:
                top, a, b = q
                if query(a, b):
                    add((top, a))
                    add((a, b))
                elif query(b, a):
                    add((top, b))
                    add((b, a))
                else:
                    add((top, a))
                    add((top, b))
            elif size > 3:
                push((q, depth, [q], None, 0))
    # No answer vouches for an edge out of the root but the first path's.
    children = sorted(c for r, c in edges if r == root and c not in heard)
    _audit_root(oracle, root, children, stats)
    return edges, stats


def reconstruct_weighted(
    oracle, n: int
) -> tuple[Edges, dict[tuple[int, int], float], ReconstructionStats]:
    """Recover the edges on nodes ``0 .. n-1`` and their exact weights from
    an additive oracle, by inserting the nodes in depth order (see the
    module docstring).

    ``oracle.query(i, j)`` must return the weight of the path i -> j, and a
    falsy answer when there is none. Each returned weight is a yes heard on
    its edge, stored verbatim. No degree bound is read, no round is run and
    nothing is drawn. An ``n`` that is not an int, or is negative, raises
    InvalidTreeError before any query. A depth read of 0.0 below the root
    raises InconsistentOracleError. After the last insertion the audit reads
    Q(root, c) once for every child c of the root, in ascending order of c,
    and an answer that is falsy or differs from the stored weight raises
    too; ``stats.audit_queries`` counts these reads.
    """
    check_node_count(n)
    stats = ReconstructionStats()
    if n < 2:
        return set(), {}, stats
    query = oracle.query
    # The root reaches every node, so it ends as the candidate.
    root, beaten, last = 0, -1, 0.0
    for k in range(1, n):
        answer = query(k, root)
        if answer:
            root, beaten, last = k, root, answer
    dist = [0.0] * n
    for k in range(n):
        if k != root:
            dist[k] = d = last if k == beaten else query(root, k)
            if not d:
                raise InconsistentOracleError(
                    f"the oracle reads node {k} at depth 0 below the root {root}; "
                    "oracle answers are inconsistent",
                    stats,
                )
    order = sorted((k for k in range(n) if k != root), key=dist.__getitem__)
    # The tree on the nodes in so far: parents, each node's subtree size
    # negated, its children largest subtree first, and the weight into each
    # node. Sizes fall down a heavy path, so its negated sizes ascend, and
    # the path's split points are bisections keyed on them.
    par = [-1] * n
    neg = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    weight = dist[:]
    key = neg.__getitem__
    previous = dist[root]
    for k in order:
        d = dist[k]
        head, last = root, d
        while True:
            # The heavy path down from head, which reaches k, split by
            # Mehlhorn's rule. Until a miss the interval runs to the path's
            # end, whose bound is 0, so the split is the last node with at
            # least half of path[lo]'s size, or else path[lo]'s heavy child,
            # and the path is walked only that far.
            path = [head]
            lo = hi = 0
            while True:
                cut = neg[path[lo]] // 2
                v = path[-1]
                while neg[v] <= cut and kids[v]:
                    v = kids[v][0]
                    path.append(v)
                m = len(path) - 1 if neg[v] <= cut else len(path) - 2
                if m <= lo:
                    if lo == len(path) - 1:
                        break
                    m = lo + 1
                answer = query(path[m], k)
                if answer:
                    lo, last = m, answer
                else:
                    hi, end = m - 1, neg[path[m]]
                    break
            while lo < hi:
                cut = (neg[path[lo]] + end) // 2
                m = bisect_right(path, cut, lo + 1, hi + 1, key=key) - 1
                if m <= lo:
                    m = lo + 1
                answer = query(path[m], k)
                if answer:
                    lo, last = m, answer
                else:
                    hi, end = m - 1, neg[path[m]]
            p = path[lo]
            for c in kids[p][1:]:
                answer = query(c, k)
                if answer:
                    head, last = c, answer
                    break
            else:
                break
        weight[k] = last
        siblings = kids[p]
        if d == previous:
            # Only a node of k's own depth can be in below k already, and
            # it hangs from p.
            mine = []
            for c in siblings:
                if dist[c] == d:
                    answer = query(k, c)
                    if answer:
                        weight[c] = answer
                        mine.append(c)
            if mine:
                kids[p] = siblings = [c for c in siblings if c not in mine]
                kids[k] = mine
                for c in mine:
                    par[c] = k
                    neg[k] += neg[c]
                mine.sort(key=key)
        par[k] = p
        siblings.append(k)
        _settle(siblings, neg, len(siblings) - 1)
        v = p
        while v >= 0:
            neg[v] -= 1
            u = par[v]
            if u >= 0 and kids[u][0] != v:
                _settle(kids[u], neg, kids[u].index(v))
            v = u
        previous = d
    _audit_root(oracle, root, sorted(kids[root]), stats, weight)
    weights = {(par[c], c): weight[c] for c in range(n) if c != root}
    return set(weights), weights, stats


def _audit_root(
    oracle, root: int, children: Sequence[int], stats: ReconstructionStats, weight=None
) -> None:
    """Ask ``Q(root, c)`` once for each of ``children`` in turn, counting
    each in ``stats.audit_queries``. An answer that is falsy, or, given
    ``weight``, differs from ``weight[c]``, raises
    InconsistentOracleError carrying ``stats``."""
    for c in children:
        answer = oracle.query(root, c)
        stats.audit_queries += 1
        if not answer or (weight is not None and answer != weight[c]):
            read = "a path" if weight is None else repr(weight[c])
            raise InconsistentOracleError(
                f"the oracle reads the edge {(root, c)} as {answer!r}, having read it "
                f"as {read}; oracle answers are inconsistent",
                stats,
            )


def _settle(siblings: list[int], neg: Sequence[int], at: int) -> None:
    """Move ``siblings[at]`` forward past every sibling with a smaller
    subtree, by negated sizes ``neg``, so the list stays largest first."""
    v = siblings[at]
    s = neg[v]
    while at and neg[siblings[at - 1]] > s:
        siblings[at] = siblings[at - 1]
        at -= 1
    siblings[at] = v
