"""Benchmark harness: seeded runs, query accounting, CSV and SVG output."""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InconsistentOracleError
from .generators import random_tree, uniform_weights
from .oracles import AdditiveOracle, ExactOracle, NoisyOracle, majority_vote_count, vote_lead
from .reconstruct import ReconstructionStats, reconstruct_tree, reconstruct_weighted
from .trees import DirectedRootedTree, WeightedDirectedRootedTree

REGIMES = ("exact", "noisy", "weighted")

CSV_HEADER = "regime,n,d,eps,delta,seed,raw_queries,logical_queries,rounds,success,wall_ms"

_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class BenchRecord:
    """One reconstruction run, as written to the CSV."""

    regime: str
    n: int
    d: int
    eps: float | None
    delta: float | None
    seed: int
    raw_queries: int
    logical_queries: int
    rounds: int
    success: bool
    wall_ms: float


@dataclass
class RunOutcome:
    """Everything a single simulated run produced (bench rows keep a subset)."""

    edges: set[tuple[int, int]]
    weights: dict[tuple[int, int], float] | None
    stats: ReconstructionStats
    raw_queries: int
    logical_queries: int
    success: bool
    votes: int | None = None
    lead: int | None = None


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
    the node sampling (seed*4+0 and +3 are reserved for tree generation and
    weights by :func:`bench_run`). A noisy run votes with a cap of
    ``votes`` answers and a lead of ``lead``, and its ``raw_queries`` are
    the answers its votes asked.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; pick one of {REGIMES}")
    plain = hidden.tree if isinstance(hidden, WeightedDirectedRootedTree) else hidden
    rng = random.Random(seed * 4 + 2)
    votes = lead = None
    weights_out = None

    if regime == "exact":
        oracle = ExactOracle(plain)
    elif regime == "noisy":
        if eps is None or delta is None:
            raise ValueError("the noisy regime needs eps and delta")
        # A single node asks no query, so there is nothing to vote on.
        votes = lead = 1
        if plain.n > 1:
            votes = majority_vote_count(eps, delta, plain.n, degree_bound)
            lead = vote_lead(eps, delta, plain.n, degree_bound, votes)
        oracle = NoisyOracle(plain, eps, seed=seed * 4 + 1, votes=votes, lead=lead)
    else:
        if not isinstance(hidden, WeightedDirectedRootedTree):
            raise ValueError("the weighted regime needs a weighted hidden tree")
        oracle = AdditiveOracle(hidden)

    try:
        if regime == "weighted":
            edges, weights_out, stats = reconstruct_weighted(
                oracle, range(plain.n), degree_bound, rng
            )
        else:
            edges, stats = reconstruct_tree(oracle, range(plain.n), degree_bound, rng)
    except InconsistentOracleError as err:
        edges, stats, success = set(), err.stats, False
    else:
        success = edges == set(plain.edges()) and (
            weights_out is None or weights_out == dict(hidden.weights)
        )

    return RunOutcome(
        edges=edges,
        weights=weights_out,
        stats=stats,
        raw_queries=oracle.raw,
        logical_queries=oracle.calls,
        success=success,
        votes=votes,
        lead=lead,
    )


def bench_run(
    regime: str,
    nodes: Sequence[int],
    degrees: Sequence[int],
    reps: int,
    base_seed: int,
    eps: float | None = None,
    delta: float | None = None,
) -> list[BenchRecord]:
    """Run the full (n, d, rep) grid and return one record per run.

    Each record's seed is derived independently from ``base_seed``, so the
    grid order never shifts a run's randomness. Re-running the same grid
    reproduces everything but the wall times. ``eps`` and ``delta`` are
    the noisy regime's noise rate and failure budget.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if reps < 0:
        raise ValueError("reps must be >= 0")
    records = []
    for n in nodes:
        for d in degrees:
            for rep in range(reps):
                seed = derive_seed(base_seed, n, d, rep)
                tree = random_tree(n, d, seed=seed * 4)
                if regime == "weighted":
                    hidden: DirectedRootedTree | WeightedDirectedRootedTree
                    hidden = uniform_weights(tree, seed=seed * 4 + 3)
                else:
                    hidden = tree
                started = time.perf_counter()
                outcome = run_single(regime, hidden, d, seed, eps=eps, delta=delta)
                wall_ms = (time.perf_counter() - started) * 1000.0
                records.append(
                    BenchRecord(
                        regime=regime,
                        n=n,
                        d=d,
                        eps=eps,
                        delta=delta,
                        seed=seed,
                        raw_queries=outcome.raw_queries,
                        logical_queries=outcome.logical_queries,
                        rounds=outcome.stats.rounds_total,
                        success=outcome.success,
                        wall_ms=wall_ms,
                    )
                )
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
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


# ---------------------------------------------------------------------------
# SVG scatter plot, written by hand so the package stays dependency-free.

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7943d", "#882e72", "#777777")
_WIDTH, _HEIGHT = 720, 480
_CURVE_STEPS = 120


def plot_svg(records: Sequence[BenchRecord]) -> str:
    """Scatter raw queries against n, one colour per degree bound, with the
    d*n*(log2 n)^2 reference curve overlaid for each degree."""
    width, height = _WIDTH, _HEIGHT
    points = [(r.n, r.raw_queries, r.d) for r in records if r.n >= 2]
    degrees = sorted({d for _, _, d in points})
    if not points:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"><text x="20" y="30">no data</text></svg>'
        )

    margin = 60
    x_max = max(n for n, _, _ in points) * 1.06
    reference = {
        d: [(n, d * n * math.log2(n) ** 2) for n in _curve_grid(x_max)] for d in degrees
    }
    y_max = max(
        max(q for _, q, _ in points),
        max(y for curve in reference.values() for _, y in curve),
    ) * 1.06

    def sx(v: float) -> float:
        return margin + v / x_max * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - v / y_max * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 16}" text-anchor="middle">nodes</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:.0f})">raw queries</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv, yv = frac * x_max, frac * y_max
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle">{xv:.0f}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:.0f}</text>'
        )

    for at, d in enumerate(degrees):
        colour = _PALETTE[at % len(_PALETTE)]
        coords = " ".join(f"{sx(n):.1f},{sy(y):.1f}" for n, y in reference[d])
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" '
            f'stroke-dasharray="5,4" stroke-width="1.2"/>'
        )
        for n, q, pd in points:
            if pd == d:
                parts.append(
                    f'<circle cx="{sx(n):.1f}" cy="{sy(q):.1f}" r="3.2" '
                    f'fill="{colour}" fill-opacity="0.75"/>'
                )
        y_key = margin + 16 + 16 * at
        parts.append(
            f'<circle cx="{width - margin - 150}" cy="{y_key - 4}" r="3.2" fill="{colour}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 140}" y="{y_key}">d={d} '
            f'(dashed: d&#183;n&#183;log&#178;n)</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _curve_grid(x_max: float) -> list[int]:
    steps = _CURVE_STEPS
    return sorted({max(2, round(x_max * k / steps)) for k in range(1, steps + 1)})
