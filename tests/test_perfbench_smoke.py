"""The benchmark runs one pass of each of its workloads, every run in it
recovers its hidden tree, and its counts are the committed ones."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# (logical_queries, oracle_queries, rounds) of one pass at seed 1. Counts are
# a pure function of the seeds, so a change that claims to keep every
# transcript must keep these exactly.
COUNTS = {
    "exact-random": (828662, 828662, 12023),
    "exact-deep": (1004710, 1004710, 2165),
    "noisy-random": (93793, 883467, 1983),
    "weighted-random": (271081, 271081, 0),
}


def _run_from_a_copy(tmp_path, argv):
    # The benchmark writes its record beside itself, so it runs from a copy.
    skip = shutil.ignore_patterns("results", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    return summary["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_the_workload_is_correct(workload, tmp_path):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    metrics = _run_from_a_copy(tmp_path, argv)
    counts = tuple(metrics[k]["value"] for k in ("logical_queries", "oracle_queries", "rounds"))
    assert counts == COUNTS[workload]


def test_a_traced_pass_counts_every_oracle_call(tmp_path):
    # A traced run exits 3 when the tracer's count of base-oracle calls
    # disagrees with the program's own oracle_queries.
    argv = ["--workload", "exact-random", "--seed", "1", "--seconds", "0", "--trace", "1"]
    metrics = _run_from_a_copy(tmp_path, argv)
    assert metrics["oracles.base.calls"]["value"] == COUNTS["exact-random"][1]
