"""Simulated path-query oracles.

The reconstruction code never touches a tree directly; it sees one of these
oracles instead, one per regime, each counting the queries it answers in
``calls`` and the hidden-tree evaluations they cost in ``raw``.

The oracles decide ancestry in O(1) per query from preorder spans:
``i`` is a proper ancestor of ``j`` iff ``tin[i] < tin[j] < tout[i]``. The
spans are built by one O(n) DFS on an oracle's first query, so an oracle
that is built but never asked costs nothing beyond its constructor. The
additive oracle reads its weights on that query too, once each, into a
per-node array of the weight on the edge into each node; it does not copy
them at construction, since a validated tree and its weights do not change.

A noisy oracle settles each query by a capped sequential vote: it asks noisy
answers one at a time and stops at the first time t where the lead
|yes - no| reaches ``lead``, or exceeds the ``votes - t`` answers left to
ask. With ``lead = (votes + 1) / 2`` that is a majority of ``votes``,
stopped as soon as it is decided: a plain majority is the full-lead walk,
read from the same table as every other lead. The chance that the vote is
wrong, and the law of the time it stops at, are computed exactly once per
(votes, lead, noise) and cached (``_walk``), and an oracle binds its table
at construction. The oracle answers each query with one uniform draw
against that chance, and bills the votes of the queries it answered only
when ``raw`` is read: per outcome, how many of them stopped at each time is
one multinomial draw from a second random stream that the answers never
see. Given the outcomes, the stopping times are independent of everything
else, so answers and bill have the same joint law as votes asked one by
one.

``vote_size`` sizes a run's votes: the smallest lead from Wald's up that an
odd cap keeps, and the smallest such cap, so every vote stops within it.

Every oracle answers ``query(i, j)``, truthy exactly when it claims a
directed path i -> j: the exact bit, a noisy vote's bit, or the path's
weight sum, exactly 0.0 when there is no path.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import accumulate
from typing import Iterator

from .trees import DirectedRootedTree, WeightedDirectedRootedTree, check_degree_feasible

# Walk steps that sizing a cell's votes, or building one vote table, may
# cost: about a second in CPython.
_STEP_BUDGET = 10**7


class _Oracle:
    """What every oracle keeps: the hidden tree, the queries it has answered,
    and the preorder spans, built on its first query. Each oracle defines
    its own ``query``."""

    def __init__(self, tree: DirectedRootedTree):
        self.tree = tree
        self.calls = 0
        self._n = tree.n
        self._spans: tuple[list[int], list[int]] | None = None

    @property
    def raw(self) -> int:
        """Hidden-tree evaluations so far: one per query."""
        return self.calls


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
    """A capped sequential vote over exact bits, each flipped with probability
    ``noise``.

    Each query asks at most ``votes`` noisy answers and stops once its lead
    |yes - no| reaches ``lead`` or can no longer be overturned (see the
    module docstring). ``votes`` must be odd; one vote is a single noisy
    answer. ``lead`` lies in [1, (votes + 1) / 2]; None means
    (votes + 1) / 2, a plain majority of ``votes`` stopped once decided,
    whose error and stopping law come from the same ``_walk`` table as any
    other lead's. Building that table costs O(votes * lead), so O(votes^2)
    at the full lead, where a lead from ``vote_size`` is far below it; a
    ``votes * lead`` over 10**7 steps raises ValueError before the table
    is built.
    ``noise`` may be 0.0 (degenerate no-flip limit) but must stay below 1/2.

    ``seed`` has no default and must not be None, so no stream seeds from
    OS entropy, and the oracle is deterministic given (seed, call order):
    every query draws exactly one uniform variate from its own RNG, against
    the chance that the vote is wrong. ``raw``, the noisy answers asked so
    far, is billed when read from a second stream derived from ``seed``, so
    it is deterministic given the seed and the calls made before each read,
    and never moves an answer. The exact bit is an O(1) comparison of
    preorder spans, built on the first query.
    """

    def __init__(
        self,
        tree: DirectedRootedTree,
        noise: float,
        seed: int,
        votes: int = 1,
        lead: int | None = None,
    ):
        if not 0.0 <= noise < 0.5:
            raise ValueError(f"noise must lie in [0, 0.5), got {noise}")
        if seed is None:
            raise ValueError("seed must not be None, which seeds from OS entropy")
        if not isinstance(votes, int) or votes < 1 or votes % 2 == 0:
            raise ValueError(f"vote count must be an odd int >= 1, got {votes!r}")
        half = (votes + 1) // 2
        if lead is None:
            lead = half
        elif not isinstance(lead, int) or not 1 <= lead <= half:
            raise ValueError(f"lead must be an int in [1, {half}] for {votes} votes, got {lead!r}")
        _check_table(votes, lead)
        super().__init__(tree)
        self.noise = noise
        self.votes = votes
        self.lead = lead
        self._seed = seed
        self._rng = random.Random(seed)
        self._wrong, self._right_stops, self._wrong_stops = _walk(votes, lead, noise)
        self._flips = 0
        self._billed = self._billed_flips = self._raw = 0
        self._bill_rng: random.Random | None = None

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
            self._flips += 1
            return 1 - bit
        return bit

    @property
    def raw(self) -> int:
        """Noisy answers asked so far: the stopping times of every vote.

        Billed on read, for the queries answered since the last read: per
        outcome, a multinomial split of their count over the walk's stopping
        times, drawn from a stream seeded on the first bill.
        """
        calls, flips = self.calls, self._flips
        if calls != self._billed:
            if self._bill_rng is None:
                self._bill_rng = random.Random(f"bill:{self._seed}")
            new_flips = flips - self._billed_flips
            self._raw += _bill(self._bill_rng, self._right_stops, calls - self._billed - new_flips)
            self._raw += _bill(self._bill_rng, self._wrong_stops, new_flips)
            self._billed, self._billed_flips = calls, flips
        return self._raw


class AdditiveOracle(_Oracle):
    """Returns the total weight of the directed path i -> j, or exactly 0.0.

    A miss is decided in O(1) from preorder spans. A hit sums the edge
    weights from ``j`` up to ``i`` one edge at a time, so the sum is the same
    float, bit for bit, as the sequential path sum. The weights are read
    once, on the first query, into a per-node array beside the spans: entry
    ``c`` is the weight of the edge into ``c``. They are not copied at
    construction, since a validated tree and its weights do not change.
    """

    def __init__(self, weighted: WeightedDirectedRootedTree):
        super().__init__(weighted.tree)
        self.weighted = weighted
        self._parent = weighted.tree.parent
        self._up: list[float] = []

    def query(self, i: int, j: int) -> float:
        n = self._n
        if i == j or not (0 <= i < n and 0 <= j < n):
            _check(n, i, j)
        self.calls += 1
        if self._spans is None:
            self._spans = _preorder_spans(self.tree)
            self._up = up = [0.0] * n
            for (_, c), weight in self.weighted.weights.items():
                up[c] = weight
        tin, tout = self._spans
        if not tin[i] < tin[j] < tout[i]:
            return 0.0
        parent = self._parent
        up = self._up
        total = 0.0
        c = j
        while c != i:
            total += up[c]
            c = parent[c]
        return total


@functools.cache
def vote_size(noise: float, failure_prob: float, n: int, degree_bound: int) -> tuple[int, int]:
    """``(votes, lead)`` for each noisy query, so a whole run is exact with
    chance >= 1 - delta.

    With ``delta = failure_prob``, ``d = degree_bound`` and the budget

        B = 4 * d * n * ceil(log2 n)^2

    (criterion 3's cap on the exact algorithm's mean query count), the
    capped walk over at most ``votes`` answers with lead ``lead`` (see
    ``_walk``) is wrong with chance at most delta / B. Proof that a run
    whose votes are wrong with chance eps' <= delta / B fails with chance
    at most delta: let S be the node-sampling RNG and F_t the flip of
    logical query t. Each query draws once from the noisy oracle's own RNG,
    so the F_t are i.i.d. with chance eps', the exact error of the capped
    walk (``_walk``), and independent of S. The votes a walk took are billed
    from a separate stream that no answer reads. With the same S, the noisy
    run asks exactly what the exact run asks until its first flip, so it can
    fail only if F_t = 1 for some t <= Q_exact(S). Hence

        P(fail) <= sum_t P(t <= Q_exact) * eps' = eps' * E[Q_exact]
                <= eps' * B <= delta.

    The step E[Q_exact] <= B is measured, not proven: it assumes
    ``degree_bound`` is at least the true degree, and the tests check it on
    random trees at d = 3, 5 and 10.

    With r = (1 - noise) / noise, a vote that stops with lead |D| is wrong
    with posterior chance Z = 1 / (1 + r^|D|) under a fair prior on the true
    bit, and its error is E[Z]. A capped walk stops with |D| <= h, so its
    error is at least 1 / (1 + r^h), the error of Wald's uncapped walk: no
    lead below the smallest h with 1 / (1 + r^h) <= delta / B can do. From
    that h up, one pass of ``_cap_errors`` per lead gives the error of every
    odd cap up to the Hoeffding count, the smallest odd integer at least

        ln(B / delta) / (2 * (1/2 - noise)^2),

    and the first cap that meets the target there and in the table the
    oracle bills from (``_walk``) is taken. A capped error tends to Wald's
    from above, so a lead whose Wald error sits just under the target may
    have no cap and the next lead is tried. Half the Hoeffding count is a
    plain majority of it, which always meets the target, since
    exp(-2 m (1/2 - noise)^2) bounds a majority of m's error. Cached: every
    run of a grid cell asks the same.

    A pass costs about ``most * lead`` steps, so sizing near noise 1/2 or
    delta 0 can take hours before the first query. A cell whose Hoeffding
    count times Wald's lead exceeds 10**7 steps, over a second of passes
    in CPython, raises ValueError before any pass runs; at n = 400, d = 3
    and delta = 0.1 that refuses noise 0.49 and keeps 0.48. A few cells
    just under that find a pair whose own table, ``votes * lead`` steps,
    is over the budget, which ``NoisyOracle`` refuses: they raise
    ValueError before building it, so every pair returned builds.
    """
    if noise is None or not 0.0 < noise < 0.5:
        raise ValueError(f"noise must lie in (0, 0.5), got {noise}")
    if failure_prob is None or not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {failure_prob}")
    check_degree_feasible(n, degree_bound)
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    log_ceil = (n - 1).bit_length()  # ceil(log2 n) for n >= 2
    target = failure_prob / (4.0 * degree_bound * n * log_ceil**2)
    need = -math.log(target) / (2.0 * (0.5 - noise) ** 2)
    most = math.ceil(need) // 2 * 2 + 1
    log_odds = math.log1p(-noise) - math.log(noise)
    wald = max(1, math.ceil(math.log((1.0 - target) / target) / log_odds))
    if most * wald > _STEP_BUDGET:
        raise ValueError(
            f"sizing votes for noise {noise} and failure probability {failure_prob} "
            f"takes about {most * wald:.2g} steps, more than the budget of 1e7"
        )
    for lead in range(wald, (most + 1) // 2):
        for votes, error in _cap_errors(lead, noise, most):
            if error <= target:
                _check_table(votes, lead)
                if _walk(votes, lead, noise)[0] <= target:
                    return votes, lead
    _check_table(most, (most + 1) // 2)
    return most, (most + 1) // 2


def _check_table(votes: int, lead: int) -> None:
    """Raise ValueError if the vote table for ``votes`` and ``lead`` would
    cost more than the step budget, ``votes * lead`` steps, to build."""
    if votes * lead > _STEP_BUDGET:
        raise ValueError(
            f"a vote table for {votes} votes with lead {lead} takes {votes * lead:,} "
            "steps, more than the budget of 1e7"
        )


def _cap_errors(lead: int, noise: float, most: int) -> Iterator[tuple[int, float]]:
    """Yield (votes, error) for each odd cap from 2 * lead - 1 up to ``most``:
    the chance that the capped walk with this lead is wrong.

    One forward pass of the walk with its barrier fixed at +-lead serves
    every cap. Stopping early, once the answers left can no longer overturn
    the lead, never changes the answer, so the walk capped at t is wrong
    exactly when this one was absorbed at -lead by t or is still alive below
    0 at t. At odd t the walk sits on the odd D in (-lead, lead), so the pass
    takes two answers a step: D moves up 2, stays or moves down 2, and an
    even lead is hit on the answer between, which halves the stay chance at
    the two ends. A step costs O(lead), the pass O(most * lead).
    """
    q = 1.0 - noise
    up, stay, down = q * q, 2.0 * q * noise, noise * noise
    half = lead // 2
    alive = [0.0] * (2 * half)  # alive[half + (D - 1) // 2], after one answer
    low = noise
    if half:
        alive[half - 1], alive[half], low = noise, q, 0.0
    edge, drop = (stay, down) if lead % 2 else (q * noise, noise)
    for t in range(1, most + 1, 2):
        if t >= 2 * lead - 1:
            yield t, low + sum(alive[:half])
        if half:
            low += drop * alive[0]
            alive = [
                edge * alive[0] + down * alive[1],
                *[up * b + stay * c + down * d for b, c, d in zip(alive, alive[1:], alive[2:])],
                up * alive[-2] + edge * alive[-1],
            ]


# (t, P(T = t, outcome), P(T = t | T >= t, outcome)) for each stopping time t
# with mass, in order: the last share is 1.0.
_Stops = tuple[tuple[int, float, float], ...]


@functools.cache
def _walk(votes: int, lead: int, noise: float) -> tuple[float, _Stops, _Stops]:
    """The capped sequential vote's error and its stopping-time law for
    each outcome, ``(error, right, wrong)``, exactly.

    The walk is D = (right answers) - (wrong answers), one noisy answer per
    step; it stops at the first t with |D| >= min(lead, votes - t + 1), the
    second term being the point where the answers left can no longer
    overturn the lead. It stops by t = votes, since an odd count leaves
    |D| >= 1. After t answers D has the parity of t, so a step moves only
    D = -lead + off, -lead + off + 2, ..., lead - off, off = (lead + t) % 2:
    the other half of the 2 * lead + 1 positions holds exactly 0.0, and each
    mass is the same two-term sum as in a step over all of them, bit for bit
    (``tests/reference.py``). The masses are forward sums of positive terms,
    so no cancellation loses the tail; a step costs O(lead), a walk
    O(votes * lead). At the full lead (votes + 1) / 2 the error is a plain
    majority's binomial tail. Each stop's share is its mass over the mass
    at its time and later. Cached: every oracle and ``vote_size`` with the
    same (votes, lead, noise) read one table.
    """
    q = 1.0 - noise
    alive = [0.0] * (lead + 1 - lead % 2)  # alive[m]: D = -lead + off + 2 * m
    alive[lead // 2] = 1.0
    right: list[tuple[int, float]] = []
    wrong: list[tuple[int, float]] = []
    for t in range(1, votes + 1):
        off = (lead + t) % 2
        moved = [q * a + noise * b for a, b in zip(alive, alive[1:])]
        alive = moved if off else [noise * alive[0], *moved, q * alive[-1]]
        bound = min(lead, votes - t + 1)
        cut = (lead - bound + 2 - off) // 2  # positions at D >= bound, as many at D <= -bound
        top = len(alive) - cut
        hit_right, hit_wrong = math.fsum(alive[top:]), math.fsum(alive[:cut])
        if hit_right:
            right.append((t, hit_right))
        if hit_wrong:
            wrong.append((t, hit_wrong))
        alive[top:] = alive[:cut] = [0.0] * cut
    tables = []
    for stops in (right, wrong):
        tails = [*accumulate(mass for _, mass in reversed(stops))][::-1]
        tables.append(tuple((t, mass, mass / tail) for (t, mass), tail in zip(stops, tails)))
    return math.fsum(m for _, m in wrong), *tables


def _bill(rng: random.Random, stops: _Stops, count: int) -> int:
    """Total votes of ``count`` walks with one outcome, given its ``stops``
    from ``_walk``: the count stopping at each time in turn is one binomial
    of the count left, with that time's share."""
    total = 0
    for t, _, share in stops:
        if not count:
            break
        k = _binomial(rng, count, share)
        total += t * k
        count -= k
    return total


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact draw of Bin(n, p).

    A mean under 10 is found by inversion from 0, one pmf term per step. A
    larger one takes Hormann's transformed rejection with squeeze (BTRS; J.
    Stat. Comput. Simul. 46, 1993), as ``random.binomialvariate`` does from
    Python 3.12: about 1.15 rounds of two uniforms a draw, whatever n is.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    q = 1.0 - p
    if n * p < 10.0:
        odds = p / q
        f = math.exp(n * math.log1p(-p))
        u = rng.random()
        k = 0
        while u >= f and k < n:
            u -= f
            k += 1
            f *= (n - k + 1) / k * odds
        return k
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    mode = int((n + 1) * p)
    log_mode = math.lgamma(mode + 1) + math.lgamma(n - mode + 1)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if not us:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= v_r:
            return k
        v *= alpha / (a / (us * us) + b)
        if not v or math.log(v) <= (
            log_mode - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - mode) * math.log(p / q)
        ):
            return k


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
    """Raise ValueError for a self pair or an out-of-range node; callers test first."""
    if i == j:
        raise ValueError(f"oracle queried with i == j == {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"node pair ({i}, {j}) out of range for n={n}")
