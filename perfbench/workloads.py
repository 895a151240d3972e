"""Workload definitions: seeded batches of hidden trees and their set-up.

A workload is a fixed batch of cells. Each cell names one hidden tree (its
regime, shape, n and degree bound) and one derived run seed. The workload
seed given on the command line only feeds the seed derivation; the program
under test receives the generated trees and the derived per-run seeds.

Seed roles follow ``treeprobe.bench.bench_run``: ``seed*4`` generates a
random tree, ``seed*4 + 3`` its weights, and ``run_single(seed=...)`` uses
``seed*4 + 1`` and ``seed*4 + 2`` for noise and pair sampling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from treeprobe import generators, oracles

_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class Cell:
    """One reconstruction of a batch."""

    regime: str
    shape: str
    n: int
    d: int | None
    eps: float | None
    delta: float | None
    seed: int


# (regime, shape, n, d, eps, delta) per cell. A ``parallel-chain`` has d
# branches of equal length below the root, so n is d*length + 1; the other
# fixed shapes take d from the generated tree. Every cell is repeated with
# fresh seeds so that one unusual run moves a batch total little: the count
# of one noisy reconstruction at n=400 varies by about 11% (standard
# deviation) between seeds, on a fixed tree as much as across trees, and the
# chain, which takes half of exact-deep's time, by about 15%.
BATCHES = {
    "exact-random": [
        ("exact", "random", n, d, None, None)
        for _ in range(3)
        for n in (1000, 4000)
        for d in (3, 5, 10)
    ],
    "exact-deep": [
        spec
        for _ in range(5)
        for spec in (
            ("exact", "chain", 1500, None, None, None),
            ("exact", "parallel-chain", 4 * 300 + 1, 4, None, None),
            ("exact", "star", 400, None, None, None),
            ("exact", "caterpillar", 2000, None, None, None),
        )
    ],
    "noisy-random": [("noisy", "random", 400, d, 0.1, 0.1) for _ in range(9) for d in (3, 10)],
    "weighted-random": [
        ("weighted", "random", 2000, d, None, None) for _ in range(5) for d in (3, 10)
    ],
}

# The hidden-tree oracle class each regime queries.
_ORACLE_CLASS = {"exact": "ExactOracle", "noisy": "NoisyOracle", "weighted": "AdditiveOracle"}


def derive_seed(workload_seed: int, workload: str, index: int, cell: tuple) -> int:
    """Per-cell run seed: workload seed xor sha256 of the cell's identity."""
    key = f"{workload}:{index}:{cell[1]}:{cell[2]}:{cell[3]}".encode("ascii")
    digest = hashlib.sha256(key).digest()
    return (workload_seed ^ int.from_bytes(digest[:8], "big")) & _SEED_MASK


def cells(workload: str, workload_seed: int) -> list[Cell]:
    return [
        Cell(*spec, seed=derive_seed(workload_seed, workload, index, spec))
        for index, spec in enumerate(BATCHES[workload])
    ]


def _hidden_tree(cell: Cell):
    """Generate the cell's hidden tree (weighted in the weighted regime)."""
    if cell.shape == "random":
        tree = generators.random_tree(cell.n, cell.d, seed=cell.seed * 4)
    elif cell.shape == "parallel-chain":
        tree = generators.parallel_chain(cell.d, (cell.n - 1) // cell.d)
    else:
        tree = generators.shaped_tree(cell.shape, cell.n)
    if cell.regime == "weighted":
        return generators.uniform_weights(tree, seed=cell.seed * 4 + 3)
    return tree


def _build_oracle(cell: Cell, hidden) -> None:
    """Construct the hidden-tree oracle the cell's regime queries.

    ``run_single`` builds its own oracle again on the timed path; building
    one here as well makes any precomputation that moves into oracle
    construction show up in set-up time. A class that no longer exists is
    skipped.
    """
    cls = getattr(oracles, _ORACLE_CLASS[cell.regime], None)
    if cls is None:
        return
    if cell.regime == "noisy":
        cls(hidden, cell.eps, seed=cell.seed * 4 + 1)
    else:
        cls(hidden)


@dataclass
class Prepared:
    """A set-up cell: the hidden tree and what the result must equal."""

    cell: Cell
    hidden: object
    degree_bound: int
    edges: frozenset
    weights: dict | None


def setup(batch: list[Cell]) -> list[Prepared]:
    """Generate every hidden tree and weight and construct the oracles."""
    prepared = []
    for cell in batch:
        hidden = _hidden_tree(cell)
        _build_oracle(cell, hidden)
        plain = hidden.tree if cell.regime == "weighted" else hidden
        weights = dict(hidden.weights) if cell.regime == "weighted" else None
        bound = cell.d if cell.d is not None else plain.degree_bound
        prepared.append(Prepared(cell, hidden, bound, frozenset(plain.edges()), weights))
    return prepared


def log_cost(batch: list[Cell]) -> float:
    """Sum of n * log2(n)^2 over the batch: the paper's cost scale."""
    return sum(c.n * math.log2(c.n) ** 2 for c in batch)
