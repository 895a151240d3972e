"""Benchmark harness: seeded runs, query accounting and CSV output."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InconsistentOracleError
from .generators import random_tree, uniform_weights
from .oracles import AdditiveOracle, ExactOracle, NoisyOracle, vote_size
from .reconstruct import ReconstructionStats, reconstruct_tree, reconstruct_weighted
from .trees import DirectedRootedTree, WeightedDirectedRootedTree, check_degree_feasible

REGIMES = ("exact", "noisy", "weighted")

CSV_HEADER = "regime,n,d,eps,delta,seed,raw_queries,logical_queries,rounds,success,wall_ms"

_SEED_MASK = (1 << 63) - 1


@dataclass
class RunOutcome:
    """One simulated run: its inputs, what it recovered and what it cost,
    for ``--stats`` and a bench CSV row alike. Runs that differ only in
    ``wall_ms`` compare equal."""

    regime: str
    n: int
    d: int
    eps: float | None
    delta: float | None
    seed: int
    edges: set[tuple[int, int]]
    weights: dict[tuple[int, int], float] | None
    stats: ReconstructionStats
    raw_queries: int
    logical_queries: int
    success: bool
    votes: int | None
    lead: int | None
    wall_ms: float = field(compare=False)

    @property
    def rounds(self) -> int:
        return self.stats.rounds_total


def derive_seed(base_seed: int, n: int, d: int, rep: int) -> int:
    """Stable per-record seed: base_seed xor sha256(n:d:rep).

    Platform- and process-independent, so any single record can be re-run in
    isolation.
    """
    digest = hashlib.sha256(f"{n}:{d}:{rep}".encode("ascii")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & _SEED_MASK


def run_single(
    regime: str,
    hidden: DirectedRootedTree | WeightedDirectedRootedTree,
    degree_bound: int,
    seed: int,
    eps: float | None = None,
    delta: float | None = None,
) -> RunOutcome:
    """Reconstruct one hidden tree under a regime, counting every query.

    ``seed`` feeds the role streams: seed*4+1 drives the noise (the answers,
    and a stream derived from it that bills each vote's answers), seed*4+2
    the exact and noisy drivers' node sampling (seed*4+0 and +3 are
    reserved for tree generation and weights by :func:`bench_run`); the
    weighted driver draws nothing. A noisy run votes with a cap of
    ``votes`` answers and a lead of ``lead``, and its ``raw_queries`` are
    the answers its votes asked. The weighted regime needs a weighted
    ``hidden`` unless its single node leaves no edge to weigh; its driver
    reads no degree bound, but a bound no tree on ``hidden``'s nodes fits
    raises InvalidTreeError before any query, from the gate the other
    regimes reach through their driver or ``vote_size``. An unknown
    regime, ``eps`` or ``delta`` missing in the noisy regime or given in
    another, ``eps`` outside (0, 1/2) or ``delta`` outside (0, 1) raise
    ValueError before any oracle is built, on a 1-node tree too. The
    outcome keeps the run's arguments, and its ``wall_ms`` times the call.
    """
    started = time.perf_counter()
    _check_run(regime, eps, delta)
    plain = hidden.tree if isinstance(hidden, WeightedDirectedRootedTree) else hidden
    votes = lead = None
    weights_out = None

    if regime == "exact":
        oracle = ExactOracle(plain)
    elif regime == "noisy":
        # A single node asks no query, so there is nothing to vote on.
        votes = lead = 1
        if plain.n > 1:
            votes, lead = vote_size(eps, delta, plain.n, degree_bound)
        oracle = NoisyOracle(plain, eps, seed=seed * 4 + 1, votes=votes, lead=lead)
    else:
        if not isinstance(hidden, WeightedDirectedRootedTree):
            # A 1-node tree has no edge to weigh, so it may come unweighted.
            if plain.n > 1:
                raise ValueError("the weighted regime needs a weighted hidden tree")
            hidden = WeightedDirectedRootedTree(plain, {})
        check_degree_feasible(plain.n, degree_bound)
        oracle = AdditiveOracle(hidden)

    try:
        if regime == "weighted":
            edges, weights_out, stats = reconstruct_weighted(oracle, plain.n)
        else:
            edges, stats = reconstruct_tree(oracle, plain.n, degree_bound, random.Random(seed * 4 + 2))
    except InconsistentOracleError as err:
        edges, stats, success = set(), err.stats, False
    else:
        # The edges are the hidden tree's when there are n - 1 of them and
        # each names its child's parent: no child repeats, as its parent
        # would, and no pair names the root's entry ROOT (-1) as a parent.
        parent = plain.parent
        n = len(parent)
        success = (
            len(edges) == n - 1
            and all(0 <= c < n and parent[c] == p >= 0 for p, c in edges)
            and (weights_out is None or weights_out == dict(hidden.weights))
        )

    return RunOutcome(
        regime=regime,
        n=plain.n,
        d=degree_bound,
        eps=eps,
        delta=delta,
        seed=seed,
        edges=edges,
        weights=weights_out,
        stats=stats,
        raw_queries=oracle.raw,
        logical_queries=oracle.calls,
        success=success,
        votes=votes,
        lead=lead,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def bench_run(
    regime: str,
    nodes: Sequence[int],
    degrees: Sequence[int],
    reps: int,
    base_seed: int,
    eps: float | None = None,
    delta: float | None = None,
) -> list[RunOutcome]:
    """Run the full (n, d, rep) grid and return one :class:`RunOutcome` per
    run, each made by :func:`run_single`.

    Each run's seed is derived independently from ``base_seed``, so the
    grid order never shifts a run's randomness: seed s builds the tree from
    s*4, its weights from s*4+3, and :func:`run_single` the rest. Re-running
    the same grid reproduces everything but the wall times. ``eps`` and
    ``delta`` are the noisy regime's noise rate and failure budget. Bad
    arguments raise ValueError as in :func:`run_single`, and so do a
    negative ``reps`` and a cell with no tree (``n`` below 1, or a bound no
    tree on ``n`` nodes fits), before any tree is built, so a 0-rep grid
    refuses them too.
    """
    _check_run(regime, eps, delta)
    if not isinstance(reps, int) or reps < 0:
        raise ValueError(f"reps must be an int >= 0, got {reps!r}")
    for n in nodes:
        for d in degrees:
            check_degree_feasible(n, d)
            if n < 1:
                raise ValueError(f"grid sizes must be >= 1, got {n}")
    runs = []
    for n in nodes:
        for d in degrees:
            for rep in range(reps):
                seed = derive_seed(base_seed, n, d, rep)
                tree = random_tree(n, d, seed=seed * 4)
                hidden: DirectedRootedTree | WeightedDirectedRootedTree = tree
                if regime == "weighted":
                    hidden = uniform_weights(tree, seed=seed * 4 + 3)
                runs.append(run_single(regime, hidden, d, seed, eps=eps, delta=delta))
    return runs


def records_to_csv(records: Iterable[RunOutcome]) -> str:
    """The CSV of a grid's runs: :data:`CSV_HEADER`, then one row per run."""
    lines = [CSV_HEADER]
    for r in records:
        eps = "" if r.eps is None else repr(r.eps)
        delta = "" if r.delta is None else repr(r.delta)
        lines.append(
            f"{r.regime},{r.n},{r.d},{eps},{delta},{r.seed},"
            f"{r.raw_queries},{r.logical_queries},{r.rounds},"
            f"{str(r.success).lower()},{r.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def _check_run(regime: str, eps: float | None, delta: float | None) -> None:
    """Raise ValueError unless the regime is known and ``eps`` and ``delta``
    are both given, in range, in the noisy regime and neither in another."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; pick one of {REGIMES}")
    if regime != "noisy":
        if eps is not None or delta is not None:
            # A noise rate the run never used must not reach its output.
            raise ValueError("eps and delta apply only to the noisy regime")
    elif eps is None or delta is None:
        raise ValueError("the noisy regime needs eps and delta")
    elif not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    elif not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
