"""Simulated path-query oracles.

The reconstruction code never touches a tree directly; it sees one of these
oracles instead, one per regime, each counting the queries it answers in
``calls``. A noisy oracle answers every query with a majority of ``votes``
noisy answers, so its hidden-tree evaluations are ``calls * votes``.

The oracles decide ancestry in O(1) per query from preorder spans:
``i`` is a proper ancestor of ``j`` iff ``tin[i] < tin[j] < tout[i]``. The
spans are built by one O(n) DFS on an oracle's first query, so an oracle
that is built but never asked costs nothing beyond its constructor.

A majority over ``m`` noisy votes is wrong exactly when more than half of
them flip, the event ``Bin(m, noise) > m/2``. The noisy oracle therefore
answers a whole majority with one uniform draw against that tail, computed
once per (m, noise) and cached. This has the same answer distribution as
``m`` separate votes.

Every oracle answers ``query(i, j)``, truthy exactly when it claims a
directed path i -> j: the exact bit, a noisy majority bit, or the path's
weight sum, exactly 0.0 when there is no path.
"""

from __future__ import annotations

import functools
import math
import random

from .errors import SelfQueryError
from .trees import DirectedRootedTree, WeightedDirectedRootedTree, check_degree_feasible


class _Oracle:
    """What every oracle keeps: the hidden tree, the queries it has answered,
    and the preorder spans, built on its first query. Each oracle defines
    its own ``query``."""

    def __init__(self, tree: DirectedRootedTree):
        self.tree = tree
        self.calls = 0
        self._n = tree.n
        self._spans: tuple[list[int], list[int]] | None = None


class ExactOracle(_Oracle):
    """Answers Q(i, j) from the hidden tree, no errors.

    Each query is O(1): a comparison of preorder spans, built on the first
    query.
    """

    def query(self, i: int, j: int) -> int:
        n = self._n
        if i == j or not (0 <= i < n and 0 <= j < n):
            _check(n, i, j)
        self.calls += 1
        if self._spans is None:
            self._spans = _preorder_spans(self.tree)
        tin, tout = self._spans
        return 1 if tin[i] < tin[j] < tout[i] else 0


class NoisyOracle(_Oracle):
    """Majority of ``votes`` exact bits, each flipped with probability ``noise``.

    Deterministic given (seed, call order): every query draws exactly one
    uniform variate from its own RNG, against the chance that the majority
    is wrong. ``votes`` must be odd; one vote is a single noisy answer.
    ``noise`` may be 0.0 (degenerate no-flip limit) but must stay below 1/2.
    The exact bit is an O(1) comparison of preorder spans, built on the
    first query.
    """

    def __init__(
        self, tree: DirectedRootedTree, noise: float, seed: int | None = None, votes: int = 1
    ):
        if not 0.0 <= noise < 0.5:
            raise ValueError(f"noise must lie in [0, 0.5), got {noise}")
        if votes < 1 or votes % 2 == 0:
            raise ValueError(f"vote count must be odd and >= 1, got {votes}")
        super().__init__(tree)
        self.noise = noise
        self.votes = votes
        self._rng = random.Random(seed)
        self._wrong = _majority_error(votes, noise)

    def query(self, i: int, j: int) -> int:
        n = self._n
        if i == j or not (0 <= i < n and 0 <= j < n):
            _check(n, i, j)
        self.calls += 1
        if self._spans is None:
            self._spans = _preorder_spans(self.tree)
        tin, tout = self._spans
        bit = 1 if tin[i] < tin[j] < tout[i] else 0
        if self._rng.random() < self._wrong:
            return 1 - bit
        return bit


class AdditiveOracle(_Oracle):
    """Returns the total weight of the directed path i -> j, or exactly 0.0.

    A miss is decided in O(1) from preorder spans, built on the first query.
    A hit sums the edge weights from ``j`` up to ``i`` one edge at a time, so
    the sum is the same float, bit for bit, as the sequential path sum.
    """

    def __init__(self, weighted: WeightedDirectedRootedTree):
        super().__init__(weighted.tree)
        self.weighted = weighted
        self._parent = weighted.tree.parent
        self._weights = dict(weighted.weights)

    def query(self, i: int, j: int) -> float:
        n = self._n
        if i == j or not (0 <= i < n and 0 <= j < n):
            _check(n, i, j)
        self.calls += 1
        if self._spans is None:
            self._spans = _preorder_spans(self.tree)
        tin, tout = self._spans
        if not tin[i] < tin[j] < tout[i]:
            return 0.0
        parent = self._parent
        weights = self._weights
        total = 0.0
        c = j
        while c != i:
            p = parent[c]
            total += weights[(p, c)]
            c = p
        return total


def majority_vote_count(
    noise: float,
    failure_prob: float,
    n: int,
    degree_bound: int,
) -> int:
    """Votes per majority query so a whole run is exact with chance >= 1 - delta.

    With ``delta = failure_prob``, ``d = degree_bound`` and the budget

        B = 4 * d * n * ceil(log2 n)^2

    (criterion 3's cap on the exact algorithm's mean query count), this is
    the smallest odd m whose exact majority error (see ``_majority_error``)
    is at most delta / B. Proof that a run with m votes then fails with
    chance at most delta: let S be the node-sampling RNG and F_t the flip
    of logical query t. Each query draws once from the noisy oracle's own
    RNG, so the F_t are i.i.d. with chance eps' = ``_majority_error(m,
    noise)`` and independent of S. With the same S, the noisy run asks
    exactly what the exact run asks until its first flip, so it can fail
    only if F_t = 1 for some t <= Q_exact(S). Hence

        P(fail) <= sum_t P(t <= Q_exact) * eps' = eps' * E[Q_exact]
                <= eps' * B <= delta.

    The step E[Q_exact] <= B is measured, not proven: it assumes
    ``degree_bound`` is at least the true degree, and the tests check it on
    random trees at d = 3, 5 and 10.

    m is found by bisection over the odd m up to the Hoeffding count, the
    smallest odd integer at least

        ln(B / delta) / (2 * (1/2 - noise)^2),

    which always meets the target, since exp(-2 m (1/2 - noise)^2) bounds
    the error.
    """
    if not 0.0 < noise < 0.5:
        raise ValueError(f"noise must lie in (0, 0.5), got {noise}")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {failure_prob}")
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    check_degree_feasible(n, degree_bound)
    log_ceil = (n - 1).bit_length()  # ceil(log2 n) for n >= 2
    budget = 4.0 * degree_bound * n * log_ceil**2
    need = math.log(budget / failure_prob) / (2.0 * (0.5 - noise) ** 2)
    target = failure_prob / budget
    # The majority error falls as the odd count m = 2h + 1 grows.
    lo, hi = 0, max(1, math.ceil(need)) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _majority_error(2 * mid + 1, noise) <= target:
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo + 1


@functools.cache
def _majority_error(votes: int, noise: float) -> float:
    """Chance that a majority of ``votes`` noisy answers is wrong.

    That is ``P(Bin(votes, noise) >= (votes + 1) / 2)``, exactly ``noise``
    for one vote. The binomial terms are formed in log space and added with
    ``math.fsum``, so vote counts in the hundreds of thousands neither
    overflow nor lose the tail to rounding. Cached: a run asks for one value.
    """
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


def _preorder_spans(tree: DirectedRootedTree) -> tuple[list[int], list[int]]:
    """Preorder entry times and span ends of every node.

    ``tin[v]`` is v's position in a preorder walk from the root and
    ``tout[v] = tin[v] + size of v's subtree``, so the nodes below v are
    exactly those u with ``tin[v] < tin[u] < tout[v]``. Iterative, so chains
    deeper than the recursion limit are fine.
    """
    children = tree.children
    tin = [0] * tree.n
    tout = [0] * tree.n
    clock = 0
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if v >= 0:
            tin[v] = clock
            clock += 1
            stack.append(~v)
            stack.extend(children[v])
        else:
            tout[~v] = clock
    return tin, tout


def _check(n: int, i: int, j: int) -> None:
    """Raise for a self pair or an out-of-range node; the callers test first."""
    if i == j:
        raise SelfQueryError(f"oracle queried with i == j == {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"node pair ({i}, {j}) out of range for n={n}")
