"""treeprobe benchmark: seeded reconstruction workloads, timed and verified.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-random --seed 1 --seconds 20 --trace 0

One run builds the workload's batch of hidden trees from ``--seed``, then
reconstructs the whole batch again and again for ``--seconds`` seconds as a
closed loop in this one process: each reconstruction starts after the
previous one has been verified, and no threads are used. Every result is
checked from outside against the hidden tree: the edge set, and in the
weighted regime every weight bit for bit.

The reported ``wall_s`` and ``setup_s`` are seconds at a reference machine
speed: a speed probe (``probe.py``) runs between timed steps, and each
step's time is scaled by the probe's reference time over its time around
the step. The raw times are kept in the record.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``tracer.py``). A fuller record, with the machine it
ran on and the batch composition, is written to ``perfbench/results/``.

Exit codes: 0 success; 2 the program under test cannot be imported; 3 the
query counts of two passes over the same batch differ, or the traced count
of base-oracle calls disagrees with the program's own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import probe
from tracer import BASE_METHODS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is cheap next to a pass, so it is repeated before every pass to
# give its median enough samples, spread over the whole run.
SETUPS_PER_PASS = 5

EXIT_NO_PROGRAM = 2
EXIT_INCONSISTENT = 3


class Inconsistent(Exception):
    """Counts that must repeat exactly did not."""


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import treeprobe
        from treeprobe import bench
    except ImportError as exc:
        raise SystemExit(_fail(EXIT_NO_PROGRAM, f"cannot import treeprobe from {src}: {exc}"))
    if not Path(treeprobe.__file__).resolve().is_relative_to(src):
        raise SystemExit(_fail(EXIT_NO_PROGRAM, f"treeprobe was not loaded from {src}"))
    return bench


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def check_outcome(prepared, outcome) -> str | None:
    """Name of what is wrong with a returned outcome, or None if it is exact."""
    if set(outcome.edges) != prepared.edges:
        return "WrongEdges"
    if prepared.weights is not None:
        got = outcome.weights or {}
        if got.keys() != prepared.weights.keys() or any(
            got[e].hex() != w.hex() for e, w in prepared.weights.items()
        ):
            return "WrongWeights"
    if not outcome.success:
        return "SuccessFlagFalse"
    return None


def run_batch(bench, prepared, tracer=None):
    """Reconstruct and verify every cell once.

    Returns the pass's time in seconds, raw and at the reference speed (see
    ``probe.py``), and one (logical, raw, rounds, failure) row per cell. Each
    cell is timed on its own, between two probes. An exception fails only
    its own cell; a failed run keeps whatever counts ``run_single`` returned
    for it.
    """
    rows = []
    raw = scaled = 0.0
    clock = time.perf_counter
    gc.collect()
    before = probe.measure()
    for p in prepared:
        c = p.cell
        start = clock()
        try:
            out = bench.run_single(c.regime, p.hidden, p.degree_bound, c.seed, eps=c.eps, delta=c.delta)
        except Exception as exc:  # every failure is counted; none stops the workload
            took = clock() - start
            rows.append((0, 0, 0, type(exc).__name__))
        else:
            took = clock() - start
            rows.append(
                (out.logical_queries, out.raw_queries, out.stats.rounds_total, check_outcome(p, out))
            )
        if tracer is not None:
            tracer.end_run()
        after = probe.measure()
        raw += took
        scaled += took * probe.scale(before, after)
        before = after
    return raw, scaled, rows


def timed_setups(workloads, batch, m: "Measurement"):
    """Set the batch up ``SETUPS_PER_PASS`` times, each between two probes;
    return the last set-up.

    Each set-up starts from a collected heap with no earlier set-up alive,
    so neither its time nor the peak memory depends on how many came before.
    """
    before = probe.measure()
    for _ in range(SETUPS_PER_PASS):
        prepared = None
        gc.collect()
        start = time.perf_counter()
        prepared = workloads.setup(batch)
        took = time.perf_counter() - start
        after = probe.measure()
        m.raw_setups.append(took)
        m.setups.append(took * probe.scale(before, after))
        before = after
    return prepared


@dataclass
class Measurement:
    """What one run saw: set-up and pass times, at the reference speed and
    raw, and the per-cell rows that every pass must repeat exactly."""

    setups: list = field(default_factory=list)
    raw_setups: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    rows: list | None = None
    failures: Counter = field(default_factory=Counter)
    attempted: int = 0

    def add_pass(self, rows) -> None:
        if self.rows is None:
            self.rows = rows
        if rows != self.rows:
            raise Inconsistent(f"query counts changed between passes: {self.rows} != {rows}")
        self.attempted += len(rows)
        self.failures.update(r[3] for r in rows if r[3] is not None)


def measure(bench, workloads, batch, seconds: float, tracer=None) -> Measurement:
    """Passes over the batch for about ``seconds`` seconds, at least one.

    Untraced, every pass counts towards wall time. With a ``tracer``,
    untraced and traced passes alternate; their wall times are kept apart
    and the tracer accumulates over the traced passes only.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        prepared = timed_setups(workloads, batch, m)
        raw, scaled, rows = run_batch(bench, prepared)
        prepared = None
        m.raw_walls.append(raw)
        m.walls.append(scaled)
        m.add_pass(rows)
        if tracer is not None:
            with tracer:
                prepared = workloads.setup(batch)
                raw, _, rows = run_batch(bench, prepared, tracer)
                prepared = None
            m.traced_walls.append(raw)
            m.add_pass(rows)
        per_loop = statistics.median(m.raw_walls)
        if m.traced_walls:
            per_loop += statistics.median(m.traced_walls)
        if time.perf_counter() - start + per_loop > seconds:
            return m


def _summary(values) -> dict:
    """Median, quartiles, sample count and samples of a list of times."""
    quartiles = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {
        "median": statistics.median(values),
        "quartiles": quartiles,
        "samples": len(values),
        "values": values,
    }


def end_to_end(workloads, batch, m: Measurement) -> dict:
    rows = m.rows
    logical = sum(r[0] for r in rows)
    return {
        "wall_s": (statistics.median(m.walls), "s"),
        "setup_s": (statistics.median(m.setups), "s"),
        "logical_queries": (logical, "count"),
        "oracle_queries": (sum(r[1] for r in rows), "count"),
        "q_norm": (logical / workloads.log_cost(batch), "ratio"),
        "rounds": (sum(r[2] for r in rows), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer, m: Measurement) -> dict:
    """Per-layer metrics, each averaged over the traced passes."""
    rows = m.rows
    k = len(m.traced_walls)
    calls = {key: v / k for key, v in tracer.calls.items()}
    self_s = {key: v / k for key, v in tracer.self_s.items()}
    queries = {key: v / k for key, v in tracer.queries.items()}
    logical = tracer.logical / k
    distinct = tracer.distinct_pairs / k
    rounds = sum(r[2] for r in rows)
    base_calls = calls.get("oracles.base", 0)
    majority_calls = calls.get("oracles.majority", 0)
    metrics = {
        "oracles.base.calls": (base_calls, "count"),
        "oracles.base.self_s": (self_s.get("oracles.base", 0.0), "s"),
        "oracles.base.ns_per_call": (
            self_s.get("oracles.base", 0.0) / base_calls * 1e9 if base_calls else 0.0,
            "ns",
        ),
        "oracles.majority.calls": (majority_calls, "count"),
        "oracles.majority.self_s": (self_s.get("oracles.majority", 0.0), "s"),
        "oracles.majority.votes_per_call": (
            base_calls / majority_calls if majority_calls else 0.0,
            "ratio",
        ),
        "oracles.counting.calls": (calls.get("oracles.counting", 0), "count"),
        "oracles.distinct_pairs": (distinct, "count"),
        "oracles.repeat_frac": (1.0 - distinct / logical if logical else 0.0, "ratio"),
    }
    for phase, fields in (
        ("skeleton_path", ("calls", "queries", "self_s")),
        ("lca", ("queries", "self_s")),
        ("sort", ("queries", "self_s")),
        ("bag_search", ("calls", "queries", "self_s")),
        ("split", ("queries", "self_s")),
        ("separator", ("calls", "self_s")),
        ("driver", ("self_s",)),
        ("weights", ("queries", "self_s")),
    ):
        label = f"reconstruct.{phase}"
        source = {"calls": calls, "queries": queries, "self_s": self_s}
        for field in fields:
            unit = "s" if field == "self_s" else "count"
            metrics[f"{label}.{field}"] = (source[field].get(label, 0), unit)
    metrics["reconstruct.accept_frac"] = (tracer.accepted / k / rounds if rounds else 0.0, "ratio")
    metrics["bench.run_single.self_s"] = (self_s.get("bench.run_single", 0.0), "s")
    metrics["generators.self_s"] = (self_s.get("generators", 0.0), "s")
    metrics["trees.validate_tree.self_s"] = (self_s.get("trees.validate_tree", 0.0), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(m.traced_walls) / statistics.median(m.raw_walls) - 1.0,
        "ratio",
    )
    return metrics


def check_trace(tracer, batch, m: Measurement) -> None:
    """In the exact and weighted regimes every oracle evaluation is one base
    call, so the traced base count must equal the program's raw count."""
    regime = batch[0].regime
    if regime == "noisy" or BASE_METHODS[regime] not in tracer.methods:
        return
    raw = sum(r[1] for r in m.rows) * len(m.traced_walls)
    traced = tracer.calls.get("oracles.base", 0)
    if traced != raw:
        raise Inconsistent(f"traced base-oracle calls {traced} != oracle_queries {raw}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        return _fail(2, f"unknown workload {args.workload!r}; pick one of {sorted(why)}")
    batch = workloads.cells(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        m = measure(bench, workloads, batch, args.seconds, tracer)
        if tracer is not None:
            check_trace(tracer, batch, m)
    except Inconsistent as exc:
        return _fail(EXIT_INCONSISTENT, str(exc))

    if tracer is not None:
        metrics = per_layer(tracer, m)
        absent = sorted(k for k, found in tracer.present.items() if not found)
        if absent:
            print(f"perfbench: absent spans (reported as 0): {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = end_to_end(workloads, batch, m)
        absent = []
    failed = sum(m.failures.values())
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "batch": [asdict(c) for c in batch],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reference_probe_s": probe.REFERENCE_S,
        "wall_s": _summary(m.walls),
        "raw_wall_s": _summary(m.raw_walls),
        "traced_wall_s": _summary(m.traced_walls) if args.trace else None,
        "setup_s": _summary(m.setups),
        "raw_setup_s": _summary(m.raw_setups),
        "cells": [
            {"logical_queries": r[0], "oracle_queries": r[1], "rounds": r[2], "failure": r[3]}
            for r in m.rows
        ],
        "attempted": m.attempted,
        "failed": failed,
        "failed_frac": failed / m.attempted,
        "failures": dict(m.failures),
        "absent": absent,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench: {args.workload} seed={args.seed}: {len(m.walls)} passes, record in {out_file}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": m.attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
