"""The benchmark's hidden trees are fixed by its seeds. These tests build
each workload's seed-1 batch through ``perfbench/workloads.py``, loaded
without importing the benchmark as a package, and check every parent array
and every weight against digests recorded before the generators' draws were
inlined, so a change that moves a hidden tree fails here by name, not later
as a query count that no longer matches."""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from treeprobe import random_tree

from reference import random_tree_by_randrange

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# sha256 over every cell's parent array and its weights' float.hex, in
# batch order, at workload seed 1.
DIGESTS = {
    "exact-random": "b63f6f557c61c6b9a492ab053559832e3f7b377a61a6e1563d28a0377cb929d6",
    "exact-deep": "7bfabe92c53b1e9e4b2db73c0e606b2c293cac43adf8982ad4e3d7cc697d5f7a",
    "noisy-random": "b13d0de3ebc8880c0bc3dad33014845689e92adcb7baf573174a584bc9db5c23",
    "weighted-random": "12cf87f2c8201a69cdca12bd513f1b23822d68aadf0a939a413c66fd9b00d634",
}


def _load():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load()


def tree_digest(prepared) -> str:
    digest = hashlib.sha256()
    for cell in prepared:
        tree = getattr(cell.hidden, "tree", cell.hidden)
        digest.update(repr(tree.parent).encode())
        if cell.weights is not None:
            digest.update(repr([(e, w.hex()) for e, w in cell.weights.items()]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_the_seed_one_batch_builds_the_recorded_trees(workload):
    prepared = workloads.setup(workloads.cells(workload, 1))
    assert tree_digest(prepared) == DIGESTS[workload]


@pytest.mark.parametrize("index", range(len(workloads.BATCHES["exact-random"])))
def test_exact_random_trees_match_randrange_and_shuffle(index):
    # The batch's random trees (n 1000 and 4000, d 3, 5 and 10), drawn from
    # the seeds the benchmark gives them.
    cell = workloads.cells("exact-random", 1)[index]
    seed = cell.seed * 4
    assert random_tree(cell.n, cell.d, seed).parent == random_tree_by_randrange(cell.n, cell.d, seed).parent
