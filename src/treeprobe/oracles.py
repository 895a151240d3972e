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
at construction. A table over 10**7 walk steps is refused before it is
built. The oracle answers each query with one uniform draw
against that chance, and bills the votes of the queries it answered only
when ``raw`` is read: per outcome, how many of them stopped at each time is
one multinomial draw from a second random stream that the answers never
see. Given the outcomes, the stopping times are independent of everything
else, so answers and bill have the same joint law as votes asked one by
one.

``vote_size`` sizes a run's votes: the Hoeffding count caps them, and the
lead is the smallest from Wald's up whose table at that cap meets delta / B.

Every oracle answers ``query(i, j)``, truthy exactly when it claims a
directed path i -> j: the exact bit, a noisy vote's bit, or the path's
weight sum, exactly 0.0 when there is no path. The exact oracle also
answers two batches from the spans: ``reaching(nodes, j)``, the nodes that
reach j, one query each, and ``deepest(path, plan, nodes)``, where each
node's walk down a search plan over ``path`` ends, one query per step. A
``query`` replaced on a subclass, the class or the instance turns a batch
back into one ``query`` call per pair, in order, so every wrapper sees
every query; so does a node out of range, or a node of ``nodes`` on
``path``, so the first bad pair raises as ``query`` does.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import accumulate
from typing import Sequence

from .trees import DirectedRootedTree, WeightedDirectedRootedTree, check_degree_feasible

# Walk steps that building one vote table may cost: about a second in
# CPython.
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

    def reaching(self, nodes: Sequence[int], j: int) -> list[int]:
        """The nodes of ``nodes``, ``j`` skipped, that answer ``Q(k, j)``, in
        order: one query each, asked as one batch, or per pair where
        ``_batch_spans`` says so.
        """
        spans = self._batch_spans(nodes, (j,))
        if spans is not None:
            tin, tout = spans
            try:
                t = tin[j]
                found = [k for k in nodes if tin[k] < t < tout[k]]
            except IndexError:
                pass
            else:
                self.calls += len(nodes) - nodes.count(j)
                return found
        query = self.query
        return [k for k in nodes if k != j and query(k, j)]

    def deepest(
        self,
        path: Sequence[int],
        plan: tuple[int, Sequence[int], Sequence[int]],
        nodes: Sequence[int],
    ) -> list[int]:
        """Each node's answer to a search ``plan`` down ``path``, in the order
        of ``nodes``: one query per step walked, each node's walk asked as one
        batch, or per pair where ``_batch_spans`` says so.

        A plan ``(first, hit, miss)`` over the positions of ``path``, as
        ``reconstruct.search_plan`` builds it, is walked from entry
        ``first``. An entry m >= 1 is a split point: it asks
        ``Q(path[m], k)`` and goes on to ``hit[m]`` on a yes, ``miss[m]`` on
        a no. An entry below 0 ends the walk, with the answer ``~entry``, a
        position of ``path``. A node of ``nodes`` that lies on ``path`` is
        asked per pair too, so that its pair with itself raises where the
        walk reaches it.
        """
        first, hit, miss = plan
        spans = self._batch_spans(nodes, path)
        if spans is not None:
            tin, tout = spans
            try:
                ins = [tin[v] for v in path]
                outs = [tout[v] for v in path]
                # A path node's own time reads None while the nodes walk, so a
                # node on the path raises TypeError at its first comparison,
                # as a node past the spans' end raises IndexError: either
                # sends the batch per pair.
                for v in path:
                    tin[v] = None
                try:
                    found = []
                    append = found.append
                    steps = 0
                    for k in nodes:
                        t = tin[k]
                        at = first
                        while at > 0:
                            steps += 1
                            at = hit[at] if ins[at] < t < outs[at] else miss[at]
                        append(~at)
                finally:
                    for v, entry in zip(path, ins):
                        tin[v] = entry
            except (IndexError, TypeError):
                pass
            else:
                self.calls += steps
                return found
        query = self.query
        found = []
        for k in nodes:
            at = first
            while at > 0:
                at = hit[at] if query(path[at], k) else miss[at]
            found.append(~at)
        return found

    def _batch_spans(
        self, nodes: Sequence[int], ends: Sequence[int]
    ) -> tuple[list[int], list[int]] | None:
        """The preorder spans for a batch that asks each node of ``nodes``
        against nodes of ``ends``, built on first use, or None where the
        batch must be asked one ``query`` per pair, in order.

        That is where ``query`` is not this class's own, replaced on a
        subclass, on the class or on the instance, so that every override
        and wrapper sees every query; and where a node is negative. A batch
        that reads a node past the spans' end (an IndexError) is asked per
        pair as well. Either way the first bad pair raises the ValueError
        ``query`` raises, with ``calls`` where asking per pair leaves it.
        """
        if (
            getattr(self.query, "__func__", None) is not _exact_query
            or min(ends) < 0
            or (nodes and min(nodes) < 0)
        ):
            return None
        if self._spans is None:
            self._spans = _preorder_spans(self.tree)
        return self._spans


# The query the batches ask. A wrapper set on the class later replaces
# ``ExactOracle.query``, not this.
_exact_query = ExactOracle.query


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
    at the full lead, where a lead from ``vote_size`` is far below it;
    ``_walk`` refuses a ``votes * lead`` over 10**7 steps with ValueError
    before its first step.
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

    The cap is the Hoeffding count, the smallest odd integer at least

        ln(B / delta) / (2 * (1/2 - noise)^2).

    With r = (1 - noise) / noise, a vote that stops with lead |D| is wrong
    with posterior chance Z = 1 / (1 + r^|D|) under a fair prior on the true
    bit, and its error is E[Z]. A capped walk stops with |D| <= h, so its
    error is at least 1 / (1 + r^h), the error of Wald's uncapped walk: no
    lead below the smallest h with 1 / (1 + r^h) <= delta / B can do. From
    that h up, each lead's table at the cap, the one the oracle bills from
    (``_walk``), is built until its error meets the target. A capped error
    tends to Wald's from above, so a lead whose Wald error sits just under
    the target may miss and the next lead is tried. The search ends by the
    full lead (cap + 1) / 2 at the latest, a plain majority of the cap,
    since exp(-2 m (1/2 - noise)^2) bounds a majority of m's error. Sizing
    builds only tables it could return, and the pair returned has its table
    cached. Cached: every run of a grid cell asks the same.

    A table costs ``votes * lead`` steps, so sizing near noise 1/2 or delta
    0 could take hours before the first query. ``_walk`` refuses a table
    over 10**7 steps, about a second in CPython, with ValueError before its
    first step, so a cell is refused once a lead it tries has a table over
    that, and every pair returned builds; at n = 400, d = 3 and delta = 0.1
    that refuses noise 0.49 and keeps 0.48. A delta / B that underflows to
    0.0 raises ValueError.
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
    if not target:
        raise ValueError(
            f"failure probability {failure_prob} is too small: its share of each query "
            "underflows to 0"
        )
    need = -math.log(target) / (2.0 * (0.5 - noise) ** 2)
    most = math.ceil(need) // 2 * 2 + 1
    log_odds = math.log1p(-noise) - math.log(noise)
    # ln((1 - target) / target), whose quotient overflows below about 5e-309.
    lead = max(1, math.ceil((math.log1p(-target) - math.log(target)) / log_odds))
    while _walk(most, lead, noise)[0] > target:
        lead += 1
    return most, lead


# (t, P(T = t, outcome), P(T = t | T >= t, outcome)) for each stopping time t
# with mass, in order: the last share is 1.0.
_Stops = tuple[tuple[int, float, float], ...]


@functools.lru_cache(maxsize=32)
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
    O(votes * lead), and a walk over 10**7 steps raises ValueError before
    its first. At the full lead (votes + 1) / 2 the error is a plain
    majority's binomial tail. Each stop's share is its mass over the mass
    at its time and later. Cached, for the 32 latest (votes, lead, noise):
    every oracle and ``vote_size`` with the same ones read one table. An
    oracle binds its table at construction, so eviction never reaches a
    live oracle.
    """
    if votes * lead > _STEP_BUDGET:
        raise ValueError(
            f"a vote table for {votes} votes with lead {lead} takes {votes * lead:,} "
            "steps, more than the budget of 1e7"
        )
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
