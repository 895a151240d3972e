"""A fixed speed probe, to express times at one reference machine speed.

The benchmark shares a few cores of a host with other work, and the speed
those cores give a Python process drifts by 20-30% over tens of seconds. The
drift moves every run's wall time alike, so raw times of the same code spread
more across runs than the regressions the benchmark must catch.

The probe is a fixed piece of pure-Python work of the same kinds as the
program's: an oracle object answering ancestry queries by walking a parent
array, on a bushy and on a deep tree; sorting and recursive splitting driven
by those queries; a memo dict; majority votes over noisy answers, one seeded
random draw each; float path sums over a dict of edge weights. It does not
call ``treeprobe``, so a change to the program cannot change it. The
benchmark runs it before the first timed step and after every timed step,
and scales each step's time by ``REFERENCE_S`` over the geometric mean of the
probes on either side: a step that took as long as four probes reads
``4 * REFERENCE_S`` seconds whatever the host's speed at the time.

The probe's speed follows the program's only roughly, so scaling narrows the
spread rather than removing it: on the machine named below, the raw pass
times of exact-deep spread by about 0.2 of their median across ten seeds,
the scaled ones by 0.07-0.10.
"""

from __future__ import annotations

import math
import random
import time
from functools import cmp_to_key

# Median time of one probe on a quiet spell of the machine the benchmark was
# tuned on (2 cores of an "Intel(R) Xeon(R) Processor" VM, CPython 3.11).
# Only the scale of the reported times depends on it.
REFERENCE_S = 0.016


def _tree(n: int, back: int, seed: int) -> list[int]:
    """Parent array of a random tree on 0..n-1 rooted at 0, where each
    node's parent lies at most ``back`` labels before it."""
    rng = random.Random(seed)
    return [-1] + [rng.randrange(max(0, i - back), i) for i in range(1, n)]


_BUSHY = _tree(4000, 4000, 99)  # depth about ln n
_SHALLOW = _tree(600, 40, 12345)  # depth about n/20
_DEEP = _tree(20000, 5, 4321)  # depth about n/3


class _Oracle:
    """Q(i, j) = 1 iff i is a proper ancestor of j."""

    def __init__(self, parent: list[int]):
        self._parent = parent
        self._rng = random.Random(5)
        self._weights = {(p, c): 1.0 / (c + 1) for c, p in enumerate(parent) if p != -1}
        self.calls = 0

    def query(self, i: int, j: int) -> int:
        n = len(self._parent)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError((i, j))
        self.calls += 1
        parent = self._parent
        k = parent[j]
        while k != -1:
            if k == i:
                return 1
            k = parent[k]
        return 0

    def noisy_query(self, i: int, j: int) -> int:
        bit = self.query(i, j)
        if self._rng.random() < 0.1:
            return 1 - bit
        return bit

    def majority(self, i: int, j: int, votes: int = 61) -> int:
        ask = self.noisy_query
        ones = 0
        for _ in range(votes):
            ones += ask(i, j)
        return 1 if 2 * ones > votes else 0

    def additive_query(self, i: int, j: int) -> float:
        parent, weights = self._parent, self._weights
        total = 0.0
        c = j
        while True:
            p = parent[c]
            if p == -1:
                return 0.0
            total += weights[(p, c)]
            if p == i:
                return total
            c = p


def _sort_and_split(oracle: _Oracle, nodes: list[int]) -> int:
    """Sort nodes by ancestry, then split the order recursively, asking one
    memoised query per split."""

    def cmp(a: int, b: int) -> int:
        if oracle.query(a, b):
            return -1
        if oracle.query(b, a):
            return 1
        return a - b

    nodes.sort(key=cmp_to_key(cmp))
    memo: dict = {}

    def split(lo: int, hi: int) -> int:
        if hi - lo <= 2:
            return 0
        mid = (lo + hi) // 2
        key = (nodes[lo], nodes[mid])
        if key not in memo:
            memo[key] = oracle.query(*key)
        return memo[key] + split(lo, mid) + split(mid, hi)

    return split(0, len(nodes)) + len(memo)


def _work() -> int:
    rng = random.Random(7)
    acc = 0
    for parent, size in ((_BUSHY, 80), (_BUSHY, 80), (_SHALLOW, 80)):
        oracle = _Oracle(parent)
        acc += _sort_and_split(oracle, rng.sample(range(len(parent)), size)) + oracle.calls
    oracle = _Oracle(_SHALLOW)
    n = len(_SHALLOW)
    memo: dict = {}
    for _ in range(2000):
        key = (rng.randrange(n), rng.randrange(n))
        if key not in memo:
            memo[key] = oracle.query(*key)
        acc += memo[key]
    for _ in range(25):
        acc += oracle.majority(rng.randrange(n), rng.randrange(n))
    total = 0.0
    for _ in range(600):
        total += oracle.additive_query(rng.randrange(n), rng.randrange(n))
    acc += int(total)
    oracle = _Oracle(_DEEP)
    for _ in range(40):
        acc += oracle.query(rng.randrange(len(_DEEP)), rng.randrange(len(_DEEP)))
    return acc


def measure() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into seconds at
    the reference speed."""
    return REFERENCE_S / math.sqrt(before * after)
