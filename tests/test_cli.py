"""Command-line interface: subcommands, exit codes, file handling."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from treeprobe import (
    WeightedDirectedRootedTree,
    from_edges,
    load_tree,
    save_tree,
    shaped_tree,
)
from treeprobe import bench, cli
from treeprobe.bench import RunOutcome
from treeprobe.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, main
from treeprobe.reconstruct import ReconstructionStats

from conftest import NOT_A_TREE


def run(*argv: str) -> int:
    return main(list(argv))


class TestGenerate:
    def test_star_file(self, tmp_path):
        out = tmp_path / "star.txt"
        assert run("generate", "--shape", "star", "--nodes", "6", "--out", str(out)) == EXIT_OK
        assert load_tree(out).parent == (-1, 0, 0, 0, 0, 0)

    def test_random_is_seed_stable(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (first, second):
            code = run(
                "generate", "--shape", "random", "--nodes", "20",
                "--degree", "3", "--seed", "9", "--out", str(out),
            )
            assert code == EXIT_OK
        assert first.read_text() == second.read_text()

    def test_uniform_weights(self, tmp_path):
        out = tmp_path / "weighted.txt"
        code = run(
            "generate", "--shape", "caterpillar", "--nodes", "9",
            "--out", str(out), "--weights", "uniform",
        )
        assert code == EXIT_OK
        tree = load_tree(out)
        assert isinstance(tree, WeightedDirectedRootedTree)
        assert all(0.0 < w <= 1.0 for w in tree.weights.values())

    def test_parallel_chain_needs_matching_counts(self, tmp_path):
        out = tmp_path / "pc.txt"
        code = run(
            "generate", "--shape", "parallel-chain", "--nodes", "13",
            "--degree", "4", "--out", str(out),
        )
        assert code == EXIT_OK
        assert load_tree(out).n == 13
        with pytest.raises(SystemExit) as caught:
            run("generate", "--shape", "parallel-chain", "--nodes", "12",
                "--degree", "4", "--out", str(out))
        assert caught.value.code == 2

    def test_random_requires_a_degree(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            run("generate", "--shape", "random", "--nodes", "10",
                "--out", str(tmp_path / "t.txt"))
        assert caught.value.code == 2

    @pytest.mark.parametrize("shape", ["chain", "star", "caterpillar", "balanced"])
    def test_degree_on_a_fixed_shape_is_a_usage_error(self, tmp_path, capsys, shape):
        out = tmp_path / "t.txt"
        with pytest.raises(SystemExit) as caught:
            run("generate", "--shape", shape, "--nodes", "5", "--degree", "2", "--out", str(out))
        assert caught.value.code == 2
        assert "--degree applies only to" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_degree_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            run("generate", "--shape", "random", "--nodes", "10",
                "--degree", "1", "--out", str(tmp_path / "t.txt"))
        assert caught.value.code == 2

    @pytest.mark.parametrize("nodes", ["0", "-3"])
    @pytest.mark.parametrize(
        "shape", ["random", "chain", "star", "caterpillar", "balanced", "parallel-chain"]
    )
    def test_no_nodes_is_a_usage_error(self, tmp_path, shape, nodes):
        out = tmp_path / "t.txt"
        # One branch fits any count, so parallel_chain itself refuses it.
        degree = {"random": ["--degree", "2"], "parallel-chain": ["--degree", "1"]}.get(shape, [])
        with pytest.raises(SystemExit) as caught:
            run("generate", "--shape", shape, "--nodes", nodes, *degree, "--out", str(out))
        assert caught.value.code == 2
        assert not out.exists()


class TestReconstruct:
    @pytest.fixture
    def hidden_file(self, tmp_path, bent_tree):
        path = tmp_path / "hidden.txt"
        save_tree(bent_tree, path)
        return path

    def test_exact_round_trip_verifies(self, tmp_path, hidden_file, capsys):
        recovered = tmp_path / "recovered.txt"
        assert run("reconstruct", "--tree", str(hidden_file), "--out", str(recovered)) == EXIT_OK
        assert run("verify", "--expected", str(hidden_file), "--actual", str(recovered)) == EXIT_OK
        assert "match" in capsys.readouterr().out

    def test_stats_output(self, hidden_file, capsys):
        assert run("reconstruct", "--tree", str(hidden_file), "--stats") == EXIT_OK
        out = capsys.readouterr().out
        assert "success=true" in out
        assert "raw_queries=" in out and "logical_queries=" in out
        assert "rounds=" in out and "max_depth=" in out and "audit_queries=" in out

    def test_failed_run_prints_its_audit_count(self, hidden_file, monkeypatch, capsys):
        def failed_run(*args, **kwargs):
            stats = ReconstructionStats(rounds_total=5, audit_queries=3)
            return RunOutcome(
                "exact", 3, 2, None, None, 0, set(), None, stats, 40, 40,
                success=False, votes=None, lead=None, wall_ms=0.0,
            )

        monkeypatch.setattr(cli, "run_single", failed_run)
        assert run("reconstruct", "--tree", str(hidden_file), "--stats") == EXIT_MISMATCH
        out = capsys.readouterr().out.splitlines()
        assert "rounds=5" in out and "audit_queries=3" in out

    def test_noisy_reports_votes(self, tmp_path, capsys):
        hidden = tmp_path / "small.txt"
        save_tree(shaped_tree("caterpillar", 10), hidden)
        code = run(
            "reconstruct", "--tree", str(hidden), "--regime", "noisy",
            "--eps", "0.1", "--delta", "0.1", "--seed", "3", "--stats",
        )
        assert code == EXIT_OK
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
        )
        votes, lead = int(out["votes"]), int(out["lead"])
        assert votes % 2 == 1 and 1 <= lead <= (votes + 1) // 2
        logical = int(out["logical_queries"])
        assert lead * logical <= int(out["raw_queries"]) <= votes * logical

    def test_noisy_run_on_a_single_node_asks_nothing(self, tmp_path, capsys):
        hidden = tmp_path / "one.txt"
        save_tree(from_edges(1, set()), hidden)
        code = run(
            "reconstruct", "--tree", str(hidden), "--regime", "noisy",
            "--eps", "0.1", "--delta", "0.1", "--stats",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "success=true" in out
        assert "raw_queries=0" in out and "logical_queries=0" in out

    @pytest.mark.parametrize("with_out", [True, False])
    def test_failed_run_exits_one_and_writes_nothing(
        self, tmp_path, hidden_file, spine_tree, monkeypatch, capsys, with_out
    ):
        # With --out, the run returns a valid tree that is not the hidden
        # one; without, it returns no edges at all.
        edges = set(spine_tree.edges()) if with_out else set()

        def failed_run(*args, **kwargs):
            return RunOutcome(
                "exact", 3, 2, None, None, 0, edges, None, ReconstructionStats(), 0, 0,
                success=False, votes=None, lead=None, wall_ms=0.0,
            )

        monkeypatch.setattr(cli, "run_single", failed_run)
        argv = ["reconstruct", "--tree", str(hidden_file), "--stats"]
        if with_out:
            argv += ["--out", str(tmp_path / "out.txt")]
        assert run(*argv) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "success=false" in captured.out
        assert "error: reconstruction failed" in captured.err
        assert list(tmp_path.iterdir()) == [hidden_file]

    def test_weighted_round_trip(self, tmp_path, bent_tree):
        hidden = tmp_path / "weighted.txt"
        recovered = tmp_path / "recovered.txt"
        run("generate", "--shape", "balanced", "--nodes", "15",
            "--out", str(hidden), "--weights", "uniform")
        code = run(
            "reconstruct", "--tree", str(hidden), "--regime", "weighted",
            "--out", str(recovered),
        )
        assert code == EXIT_OK
        assert run("verify", "--expected", str(hidden), "--actual", str(recovered)) == EXIT_OK

    def test_weighted_stats_count_the_weight_reads(self, tmp_path, capsys):
        # The additive regime inserts nodes in depth order: it runs no
        # round and splits nothing, and its audit reads each edge out of the
        # root once more after the last insertion.
        hidden = tmp_path / "weighted.txt"
        assert run("generate", "--shape", "random", "--nodes", "40", "--degree", "3",
                   "--seed", "5", "--weights", "uniform", "--out", str(hidden)) == EXIT_OK
        capsys.readouterr()
        code = run("reconstruct", "--tree", str(hidden), "--regime", "weighted", "--stats")
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        tree = load_tree(hidden).tree
        from_root = len(tree.children[tree.root])
        assert {"success=true", "rounds=0", "max_depth=1", f"audit_queries={from_root}"} <= set(out)

    def test_weighted_stats_do_not_move_with_the_seed(self, tmp_path, capsys):
        # The additive regime draws nothing, so --seed changes no count.
        hidden = tmp_path / "weighted.txt"
        assert run("generate", "--shape", "random", "--nodes", "40", "--degree", "3",
                   "--seed", "5", "--weights", "uniform", "--out", str(hidden)) == EXIT_OK
        printed = []
        for seed in ("0", "7"):
            capsys.readouterr()
            code = run("reconstruct", "--tree", str(hidden), "--regime", "weighted",
                       "--stats", "--seed", seed)
            assert code == EXIT_OK
            printed.append(capsys.readouterr().out.splitlines())
        assert "success=true" in printed[0]
        assert printed[0] == printed[1]

    def test_one_node_weighted_round_trip(self, tmp_path, capsys):
        # A 1-node tree has no edge to carry a weight, so its file reads
        # back unweighted; the weighted regime still takes it.
        hidden = tmp_path / "one.txt"
        recovered = tmp_path / "recovered.txt"
        assert run("generate", "--shape", "chain", "--nodes", "1",
                   "--weights", "uniform", "--out", str(hidden)) == EXIT_OK
        code = run(
            "reconstruct", "--tree", str(hidden), "--regime", "weighted",
            "--out", str(recovered), "--stats",
        )
        assert code == EXIT_OK
        assert "logical_queries=0" in capsys.readouterr().out.splitlines()
        assert run("verify", "--expected", str(hidden), "--actual", str(recovered)) == EXIT_OK

    def test_noisy_requires_eps_and_delta(self, hidden_file):
        with pytest.raises(SystemExit) as caught:
            run("reconstruct", "--tree", str(hidden_file), "--regime", "noisy")
        assert caught.value.code == 2

    def test_noise_out_of_range_is_a_usage_error(self, hidden_file):
        with pytest.raises(SystemExit) as caught:
            run("reconstruct", "--tree", str(hidden_file), "--regime", "noisy",
                "--eps", "0.6", "--delta", "0.1")
        assert caught.value.code == 2

    @pytest.mark.parametrize("regime", ["exact", "weighted"])
    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_noise_flags_outside_the_noisy_regime_are_usage_errors(
        self, hidden_file, capsys, regime, flag
    ):
        with pytest.raises(SystemExit) as caught:
            run("reconstruct", "--tree", str(hidden_file), "--regime", regime, flag, "0.1")
        assert caught.value.code == 2
        assert "eps and delta apply only to the noisy regime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "eps, delta, message",
        [("0", "0.1", "eps must lie in (0, 0.5)"), ("0.1", "1.5", "delta must lie in (0, 1)")],
    )
    def test_noise_out_of_range_on_a_single_node_is_a_usage_error(
        self, tmp_path, capsys, eps, delta, message
    ):
        # A 1-node run sizes no vote, so the range check alone refuses it.
        hidden = tmp_path / "one.txt"
        save_tree(from_edges(1, set()), hidden)
        with pytest.raises(SystemExit) as caught:
            run("reconstruct", "--tree", str(hidden), "--regime", "noisy",
                "--eps", eps, "--delta", delta)
        assert caught.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_file_is_reported_before_bad_flags(self, tmp_path, capsys):
        # The file is read before the run checks its arguments.
        code = run("reconstruct", "--tree", str(tmp_path / "absent.txt"),
                   "--regime", "exact", "--eps", "0.1")
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_weighted_requires_a_weighted_file(self, hidden_file):
        with pytest.raises(SystemExit) as caught:
            run("reconstruct", "--tree", str(hidden_file), "--regime", "weighted")
        assert caught.value.code == 2

    def test_missing_tree_file(self, tmp_path, capsys):
        assert run("reconstruct", "--tree", str(tmp_path / "absent.txt")) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_malformed_tree_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for content in (b"3\n0 -1\n", b"2\n0 -1\n1 0 0.5\xc3\xa9\n"):
            bad.write_bytes(content)
            assert run("reconstruct", "--tree", str(bad)) == EXIT_IO
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", NOT_A_TREE)
    def test_a_file_that_is_no_tree_exits_three_and_says_why(
        self, tmp_path, capsys, text, reason
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("reconstruct", "--tree", str(bad)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"error: not a valid tree: {reason}\n"
        assert captured.out == ""


class TestVerify:
    def test_mismatch_exit_code(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tree(shaped_tree("chain", 5), a)
        save_tree(shaped_tree("star", 5), b)
        assert run("verify", "--expected", str(a), "--actual", str(b)) == EXIT_MISMATCH
        assert "mismatch" in capsys.readouterr().err

    def test_weights_compared_only_when_both_sides_have_them(self, tmp_path, bent_tree):
        plain, weighted = tmp_path / "plain.txt", tmp_path / "weighted.txt"
        save_tree(bent_tree, plain)
        run("generate", "--shape", "balanced", "--nodes", "11",
            "--out", str(weighted), "--weights", "uniform")
        balanced = tmp_path / "balanced.txt"
        save_tree(load_tree(weighted).tree, balanced)
        assert run("verify", "--expected", str(weighted), "--actual", str(balanced)) == EXIT_OK
        assert run("verify", "--expected", str(weighted), "--actual", str(plain)) == EXIT_MISMATCH

    def test_differing_weights_mismatch(self, tmp_path, bent_tree):
        from treeprobe import uniform_weights

        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tree(uniform_weights(bent_tree, seed=1), a)
        save_tree(uniform_weights(bent_tree, seed=2), b)
        assert run("verify", "--expected", str(a), "--actual", str(b)) == EXIT_MISMATCH


class TestBench:
    def test_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        code = run(
            "bench", "--nodes", "12,16", "--degrees", "3", "--reps", "2",
            "--seed", "5", "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert "wrote 4 records" in capsys.readouterr().out

    @pytest.mark.parametrize("regime", ["exact", "noisy", "weighted"])
    def test_single_node_grid_succeeds(self, tmp_path, regime):
        csv_path = tmp_path / "one.csv"
        noise = ["--eps", "0.1", "--delta", "0.1"] if regime == "noisy" else []
        code = run("bench", "--regime", regime, *noise, "--nodes", "1", "--degrees", "1,2",
                   "--reps", "2", "--csv", str(csv_path))
        assert code == EXIT_OK
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(row[1] == "1" and row[9] == "true" for row in rows)

    @pytest.mark.parametrize("nodes, degrees", [("12,0", "3"), ("12", "1")])
    def test_bad_cell_is_refused_before_any_cell_runs(self, tmp_path, monkeypatch, nodes, degrees):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(bench, "run_single", no_run)
        target = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as caught:
            run("bench", "--nodes", nodes, "--degrees", degrees, "--reps", "1",
                "--csv", str(target))
        assert caught.value.code == 2
        assert not target.exists()

    @pytest.mark.parametrize("degrees", ["1", "0"])
    def test_infeasible_degree_is_a_usage_error(self, tmp_path, degrees):
        with pytest.raises(SystemExit) as caught:
            run("bench", "--nodes", "12", "--degrees", degrees, "--reps", "1",
                "--csv", str(tmp_path / "x.csv"))
        assert caught.value.code == 2

    def test_rejects_bad_node_list(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            run("bench", "--nodes", "ten", "--degrees", "2", "--reps", "1",
                "--csv", str(tmp_path / "x.csv"))
        assert caught.value.code == 2

    def test_noisy_bench_requires_noise_parameters(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            run("bench", "--regime", "noisy", "--nodes", "12", "--degrees", "3",
                "--reps", "1", "--csv", str(tmp_path / "x.csv"))
        assert caught.value.code == 2

    def test_failure_budget_out_of_range_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            run("bench", "--regime", "noisy", "--eps", "0.1", "--delta", "1.5",
                "--nodes", "12", "--degrees", "3", "--reps", "1",
                "--csv", str(tmp_path / "x.csv"))
        assert caught.value.code == 2

    @pytest.mark.parametrize("regime", ["exact", "weighted"])
    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_noise_flags_outside_the_noisy_regime_are_usage_errors(
        self, tmp_path, regime, flag
    ):
        # The CSV would record a noise rate the run never used.
        target = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as caught:
            run("bench", "--regime", regime, flag, "0.3", "--nodes", "12",
                "--degrees", "3", "--reps", "1", "--csv", str(target))
        assert caught.value.code == 2
        assert not target.exists()

    def test_zero_reps_still_refuse_noise_flags(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as caught:
            run("bench", "--reps", "0", "--regime", "exact", "--eps", "0.1",
                "--nodes", "12", "--degrees", "3", "--csv", str(target))
        assert caught.value.code == 2
        assert "only to the noisy regime" in capsys.readouterr().err
        assert not target.exists()

    def test_negative_reps_is_a_usage_error(self, tmp_path):
        target = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as caught:
            run("bench", "--reps", "-1", "--nodes", "12", "--degrees", "3",
                "--csv", str(target))
        assert caught.value.code == 2
        assert not target.exists()

    def test_unwritable_csv_is_an_io_error(self, tmp_path, capsys):
        code = run("bench", "--nodes", "12", "--degrees", "3", "--reps", "1",
                   "--csv", str(tmp_path / "missing" / "x.csv"))
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as caught:
        run()
    assert caught.value.code == 2


def test_readme_library_examples_run():
    # The second block goes on from the first, so they run as one script.
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    blocks = [chunk.split("```", 1)[0] for chunk in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2


def _readme_session(which=0):
    """The README's ``which``-th generate / reconstruct / verify example, as
    a list of (argv, printed lines) pairs, one per ``$ treeprobe`` command."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("```\n$ treeprobe generate")[1 + which].split("```", 1)[0]
    session = []
    for line in ("$ treeprobe generate" + block).splitlines():
        if line.startswith("$ treeprobe "):
            session.append((shlex.split(line)[2:], []))
        elif line:
            session[-1][1].append(line)
    return session


def test_readme_cli_example_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # The documented counters are a pure function of the seeds, so they must
    # match a fresh run exactly.
    session = _readme_session()
    assert [argv[0] for argv, _ in session] == ["generate", "reconstruct", "verify"]
    assert any(line.startswith("logical_queries=") for _, shown in session for line in shown)
    monkeypatch.chdir(tmp_path)
    for argv, shown in session:
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == shown


def test_readme_weighted_example_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    session = _readme_session(1)
    assert [argv[0] for argv, _ in session] == ["generate", "reconstruct", "verify"]
    assert "--regime" in session[1][0] and "rounds=0" in session[1][1]
    monkeypatch.chdir(tmp_path)
    for argv, shown in session:
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == shown
