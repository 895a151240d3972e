"""The package's public surface, pinned so that any change to it is explicit."""

import dataclasses
import inspect

import treeprobe

PUBLIC_NAMES = [
    "AdditiveOracle",
    "DirectedRootedTree",
    "ExactOracle",
    "InconsistentOracleError",
    "InvalidTreeError",
    "NoisyOracle",
    "WeightedDirectedRootedTree",
    "bench_run",
    "from_edges",
    "load_tree",
    "parallel_chain",
    "random_tree",
    "reconstruct_tree",
    "reconstruct_weighted",
    "records_to_csv",
    "run_single",
    "save_tree",
    "shaped_tree",
    "uniform_weights",
    "validate_tree",
    "vote_size",
]


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES))
    assert len(PUBLIC_NAMES) == 21
    assert sorted(treeprobe.__all__) == PUBLIC_NAMES
    assert len(treeprobe.__all__) == len(set(treeprobe.__all__))


def test_every_public_name_resolves():
    for name in treeprobe.__all__:
        assert getattr(treeprobe, name) is not None


def test_driver_signatures_are_pinned():
    # Every parameter of a driver is one its callers set, so none may serve
    # only the tests.
    params = list(inspect.signature(treeprobe.reconstruct_tree).parameters)
    assert params == ["oracle", "n", "degree_bound", "rng"]
    # The additive regime inserts in depth order, reads no bound and draws
    # nothing.
    params = list(inspect.signature(treeprobe.reconstruct_weighted).parameters)
    assert params == ["oracle", "n"]


def test_bench_run_takes_the_grid_as_parameters():
    params = list(inspect.signature(treeprobe.bench_run).parameters)
    assert params == ["regime", "nodes", "degrees", "reps", "base_seed", "eps", "delta"]


def test_run_record_fields_are_pinned():
    # One record serves the CLI's --stats lines, a bench grid and its CSV.
    fields = [f.name for f in dataclasses.fields(treeprobe.bench.RunOutcome)]
    assert fields == [
        "regime", "n", "d", "eps", "delta", "seed",
        "edges", "weights", "stats", "raw_queries", "logical_queries", "success",
        "votes", "lead", "wall_ms",
    ]


def test_base_oracles_define_their_own_query():
    # perfbench/tracer.py wraps each base oracle's ``query`` through the
    # class's own namespace, so a ``query`` inherited from a shared base
    # class would silently drop the base-oracle layer from its traces.
    for cls in (treeprobe.ExactOracle, treeprobe.NoisyOracle, treeprobe.AdditiveOracle):
        assert "query" in vars(cls), cls.__name__
