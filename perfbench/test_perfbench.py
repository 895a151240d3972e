"""The benchmark's own tests.

Run from the root of the repository:

    python3 -m pytest -q perfbench

They run every workload on tiny trees of the same shapes, so the whole file
takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from treeprobe import bench, oracles, reconstruct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "exact-random": [("exact", "random", n, d, None, None) for n in (40, 90) for d in (3, 5)],
    "exact-deep": [
        ("exact", "chain", 40, None, None, None),
        ("exact", "parallel-chain", 3 * 10 + 1, 3, None, None),
        ("exact", "star", 20, None, None, None),
        ("exact", "caterpillar", 50, None, None, None),
    ],
    "noisy-random": [("noisy", "random", 40, d, 0.1, 0.1) for d in (3, 10)],
    "weighted-random": [("weighted", "random", 80, d, None, None) for d in (3, 10)],
}


@pytest.fixture(autouse=True)
def tiny_batches(monkeypatch):
    monkeypatch.setattr(workloads, "BATCHES", TINY)


def _main(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(workloads.BATCHES) == sorted(TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _main(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= len(TINY[workload])
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_trace_shape_by_regime(capsys):
    layers = {w: _main(capsys, w, 1)["metrics"] for w in WORKLOADS}
    for w, m in layers.items():
        noisy, weighted = w.startswith("noisy"), w.startswith("weighted")
        assert (m["oracles.majority.calls"]["value"] > 0) == noisy
        assert (m["reconstruct.weights.queries"]["value"] > 0) == weighted
        assert m["oracles.counting.calls"]["value"] > 0
        assert 0 < m["reconstruct.accept_frac"]["value"] <= 1


# Counts of one fixed-seed cell per regime, recomputed exactly: the logical
# queries, the hidden-tree oracle evaluations and the rounds of
# ``run_single`` on the first tiny cell of each workload at workload seed 1.
COMMITTED = {
    "exact-random": (2045, 2045, 48),
    "exact-deep": (930, 930, 46),
    "noisy-random": (1924, 98124, 49),
    "weighted-random": (5815, 5815, 92),
}


@pytest.mark.parametrize("workload", sorted(COMMITTED))
def test_counts_of_a_fixed_cell_are_committed(workload):
    prepared = workloads.setup(workloads.cells(workload, 1)[:1])
    _, _, rows = run.run_batch(bench, prepared)
    assert rows == [(*COMMITTED[workload], None)]


def test_failures_are_counted_and_do_not_stop_the_batch():
    prepared = workloads.setup(workloads.cells("weighted-random", 1))

    class Flaky:
        calls = 0

        def run_single(self, *args, **kwargs):
            Flaky.calls += 1
            if Flaky.calls == 1:
                raise RecursionError("too deep")
            out = bench.run_single(*args, **kwargs)
            edge = min(out.weights)
            out.weights[edge] = out.weights[edge] + 2**-40  # one wrong weight bit
            return out

    _, _, rows = run.run_batch(Flaky(), prepared)
    assert [r[3] for r in rows] == ["RecursionError", "WrongWeights"]


def test_changing_counts_stop_the_benchmark():
    batch = workloads.cells("exact-deep", 1)[:1]

    class Drifting:
        calls = 0

        def run_single(self, *args, **kwargs):
            Drifting.calls += 1
            out = bench.run_single(*args, **kwargs)
            out.logical_queries += Drifting.calls
            return out

    with pytest.raises(run.Inconsistent):
        run.measure(Drifting(), workloads, batch, seconds=30.0)


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.delattr(reconstruct, "split_tree")
    monkeypatch.delattr(oracles, "CountingOracle")
    with tracer.Tracer() as t:
        pass
    assert t.present["reconstruct.split"] is False
    assert t.present["oracles.counting"] is False
    assert t.present["reconstruct.bag_search"] is True
    assert reconstruct.find_bag.__name__ == "find_bag"  # unpatched on exit


def test_traced_run_matches_untraced_counts():
    batch = workloads.cells("exact-random", 3)
    t = tracer.Tracer()
    m = run.measure(bench, workloads, batch, seconds=0.0, tracer=t)
    run.check_trace(t, batch, m)
    assert t.calls["oracles.base"] == sum(r[1] for r in m.rows)
    assert t.logical == sum(r[0] for r in m.rows)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == run.EXIT_NO_PROGRAM
    assert '"metrics"' not in proc.stdout


def test_probe_scales_to_the_reference_speed_and_leaves_the_program_alone():
    import probe

    assert probe.scale(probe.REFERENCE_S, probe.REFERENCE_S) == 1.0
    assert probe.scale(2 * probe.REFERENCE_S, 2 * probe.REFERENCE_S) == 0.5
    assert probe.measure() > 0
    assert not any(
        getattr(v, "__module__", getattr(v, "__name__", "")).startswith("treeprobe")
        for v in vars(probe).values()
    )
