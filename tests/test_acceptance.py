"""Acceptance gate: the package's headline guarantees, run end to end.

Each test prints one ``[criterion N] PASS`` or ``FAIL`` line straight to the
terminal (capture is bypassed for that line alone), so a plain
``pytest tests/test_acceptance.py`` run doubles as a sign-off report.  All
seeds are fixed: a passing run is reproducible, and a failing one points at
a regression rather than bad luck.
"""

from __future__ import annotations

import random
import statistics

import pytest

from treeprobe import (
    ExactOracle,
    bench_run,
    random_tree,
    reconstruct_tree,
    validate_tree,
    vote_size,
)
from treeprobe.cli import EXIT_OK, main as cli_main
from treeprobe.reconstruct import path_pieces, reconstruct_skeleton_path
from treeprobe.trees import ROOT, max_node_degree

from reference import (
    accepted_cuts,
    bag_nodes,
    check_separator,
    descent,
    enumerate_trees,
    root_chain,
    skeleton_path,
    subtree_nodes,
)

GRID_NODES = [100, 500, 1000, 2000]
GRID_DEGREES = [3, 5, 10]
GRID_REPS = 10
GRID_SEED = 97

NOISY_SEED = 131
WEIGHTED_SEED = 167
SAMPLES = 1000


@pytest.fixture
def report(capfd):
    """Print one verdict line on the real terminal, then let asserts run."""

    def emit(number: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"[criterion {number}] {verdict}: {detail}", flush=True)

    return emit


@pytest.fixture(scope="module")
def exact_grid():
    """One shared 120-run exact benchmark; criteria 2, 3 and 4 all read it."""
    return bench_run("exact", GRID_NODES, GRID_DEGREES, GRID_REPS, GRID_SEED)


def test_criterion_1_every_small_tree_is_recovered(report):
    rng = random.Random(0xC0FFEE)
    counts: dict[int, int] = {}
    failures: list[tuple[int, ...]] = []
    for n in range(1, 8):
        seen = 0
        for loose in enumerate_trees(n, max(1, n - 1)):
            seen += 1
            # Rebuild under the tightest bound the tree satisfies; a looser
            # bound only makes the separator search easier.
            tree = validate_tree(loose.parent, max_node_degree(loose.parent))
            edges, _ = reconstruct_tree(
                ExactOracle(tree), n, tree.degree_bound, rng
            )
            if edges != set(tree.edges()):
                failures.append(tree.parent)
        counts[n] = seen
    expected = {n: n ** (n - 1) for n in range(1, 7)}
    counts_ok = all(counts[n] == expected[n] for n in expected)
    ok = counts_ok and not failures
    report(1, ok, f"{sum(counts.values())} trees through n=7, all exact")
    assert counts_ok, counts
    assert not failures, failures[:5]


def test_criterion_2_benchmark_grid_is_recovered(exact_grid, report):
    failed = [r for r in exact_grid if not r.success]
    wanted = GRID_REPS * len(GRID_NODES) * len(GRID_DEGREES)
    ok = len(exact_grid) == wanted and not failed
    report(2, ok, f"{len(exact_grid) - len(failed)}/{len(exact_grid)} runs exact")
    assert len(exact_grid) == wanted
    assert not failed, [(r.n, r.d, r.seed) for r in failed]


def test_criterion_3_query_growth_stays_quasilinear(exact_grid, report):
    means = {}
    for n in GRID_NODES:
        rows = [r for r in exact_grid if r.d == 5 and r.n == n]
        means[n] = statistics.fmean(r.raw_queries for r in rows)
    growth = means[2000] / means[1000]
    caps = {n: 4 * 5 * n * (n - 1).bit_length() ** 2 for n in GRID_NODES}
    worst = max(means[n] / caps[n] for n in GRID_NODES)
    ok = growth <= 2.7 and worst <= 1.0
    report(3, ok, f"doubling factor {growth:.2f}, worst cap share {worst:.2f}")
    assert growth <= 2.7, means
    assert worst <= 1.0, {n: (means[n], caps[n]) for n in GRID_NODES}


def test_criterion_4_rounds_per_split_stay_bounded(exact_grid, report):
    shares = []
    for d in GRID_DEGREES:
        rows = [r for r in exact_grid if r.n == 1000 and r.d == d]
        mean_rounds = statistics.fmean(r.rounds for r in rows) / 999
        shares.append((d, mean_rounds, d * d / (d - 1)))
    ok = all(mean <= bound for _, mean, bound in shares)
    detail = ", ".join(f"d={d}: {mean:.2f} of {bound:.2f}" for d, mean, bound in shares)
    report(4, ok, detail)
    for d, mean, bound in shares:
        assert mean <= bound, (d, mean, bound)


def test_criterion_5_noisy_majority_recovers(report):
    records = bench_run("noisy", [200], [5], 10, NOISY_SEED, eps=0.1, delta=0.1)
    votes, lead = vote_size(0.1, 0.1, 200, 5)
    wins = sum(1 for r in records if r.success)
    # A vote asks at least its lead and at most the cap, and stopping at the
    # lead saves votes over the batch.
    least = min(lead, (votes + 1) // 2)
    paid = all(
        least * r.logical_queries <= r.raw_queries <= votes * r.logical_queries for r in records
    )
    raw = sum(r.raw_queries for r in records)
    logical = sum(r.logical_queries for r in records)
    saved = raw < votes * logical
    ok = len(records) == 10 and wins >= 9 and paid and saved
    report(
        5,
        ok,
        f"{wins}/10 exact at eps=0.1, {raw / logical:.2f} votes per query "
        f"(lead {lead}, cap {votes})",
    )
    assert len(records) == 10
    assert wins >= 9, wins
    assert paid
    assert saved, (raw, votes * logical)


def test_criterion_6_weighted_recovery_is_exact(report):
    records = bench_run("weighted", [500], [5], 10, WEIGHTED_SEED)
    wins = sum(1 for r in records if r.success)
    ok = len(records) == 10 and wins == 10
    report(6, ok, f"{wins}/10 runs match edges and weights exactly")
    assert len(records) == 10
    assert wins == 10


def _random_instance(rng: random.Random):
    n = rng.randrange(2, 31)
    d = rng.randrange(2, 6)
    return random_tree(n, d, seed=rng.getrandbits(48))


def _induced_subtree(tree, part):
    """Relabel a connected part densely and rebuild it as its own tree."""
    order = {v: t for t, v in enumerate(sorted(part))}
    inside = set(part)
    parent = [ROOT] * len(part)
    for v in part:
        p = tree.parent[v]
        if p in inside:
            parent[order[v]] = order[p]
    return validate_tree(parent, tree.degree_bound), order


def test_criterion_7_subprocedures_match_ground_truth(report):
    rng = random.Random(0x5EED5)

    # Each audit calls what a round calls, on the subtree of a node p listed
    # p first, as the driver lists a part.
    path_bad = 0
    for _ in range(SAMPLES):
        tree = _random_instance(rng)
        p, i = descent(tree, rng.randrange)
        path = reconstruct_skeleton_path(ExactOracle(tree), subtree_nodes(tree, p), i)
        if path != skeleton_path(tree, p, i)[1]:
            path_bad += 1

    root_bad = 0
    for _ in range(SAMPLES):
        tree = _random_instance(rng)
        p = rng.randrange(tree.n)
        part = subtree_nodes(tree, p)
        rng.shuffle(part)
        i = rng.choice(part)
        if reconstruct_skeleton_path(ExactOracle(tree), part, i)[0] != p:
            root_bad += 1

    bag_bad = 0
    for _ in range(SAMPLES):
        tree = _random_instance(rng)
        p, i = descent(tree, rng.randrange)
        path = skeleton_path(tree, p, i)[1]
        truth = bag_nodes(tree, [p], path)
        oracle = ExactOracle(tree)
        for k in subtree_nodes(tree, p):
            if k in path:
                continue
            # One node off the path is placed by the unit plan alone.
            placed = path_pieces(oracle, [*path, k], path)
            if [q[0] for q in placed if len(q) > 1] != [truth[k]]:
                bag_bad += 1
                break

    split_bad = 0
    for _ in range(SAMPLES):
        tree = _random_instance(rng)
        p, i = descent(tree, rng.randrange)
        part = subtree_nodes(tree, p)
        path = skeleton_path(tree, p, i)[1]
        pieces = path_pieces(ExactOracle(tree), part, path)
        truth = bag_nodes(tree, [p], path)
        wanted = [{k for k in part if truth[k] == v} for v in path]
        if [set(q) for q in pieces] != wanted or sum(map(len, pieces)) != len(part):
            split_bad += 1

    sep_bad = 0
    audited = 0
    while audited < SAMPLES:
        tree = _random_instance(rng)
        with accepted_cuts() as cuts:
            reconstruct_tree(
                ExactOracle(tree),
                tree.n,
                tree.degree_bound,
                random.Random(rng.getrandbits(32)),
            )
        # Every node set of 3 or more nodes passes the gate at least once,
        # so a driver that stopped consulting it fails here instead of
        # looping forever.
        assert cuts or tree.n < 3, f"no accepted cut recorded on {tree.n} nodes"
        for (p, c), part in cuts:
            sub, order = _induced_subtree(tree, part)
            if not check_separator(sub, (order[p], order[c])):
                sep_bad += 1
        audited += len(cuts)

    ok = path_bad == root_bad == bag_bad == split_bad == sep_bad == 0
    report(
        7,
        ok,
        f"paths/roots/bags/pieces x{SAMPLES} samples, {audited} accepted cuts audited",
    )
    assert path_bad == 0, path_bad
    assert root_bad == 0, root_bad
    assert bag_bad == 0, bag_bad
    assert split_bad == 0, split_bad
    assert sep_bad == 0, sep_bad
    assert audited >= SAMPLES


def test_criterion_8_bench_reruns_are_identical(tmp_path, report):
    outputs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        code = cli_main(
            [
                "bench",
                "--nodes", "40,60",
                "--degrees", "3,4",
                "--reps", "3",
                "--seed", "11",
                "--csv", str(target),
            ]
        )
        assert code == EXIT_OK
        outputs.append(target.read_text().splitlines())

    def minus_timing(lines: list[str]) -> list[str]:
        return [line.rsplit(",", 1)[0] for line in lines]

    same = minus_timing(outputs[0]) == minus_timing(outputs[1])
    records = len(outputs[0]) - 1
    ok = same and records == 12
    report(8, ok, f"{records} records agree once the wall-clock column is dropped")
    assert records == 12
    assert same
