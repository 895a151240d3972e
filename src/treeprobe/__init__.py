"""treeprobe: reconstruct hidden directed rooted trees from path queries."""

from .bench import bench_run, records_to_csv, run_single
from .errors import InconsistentOracleError, InvalidTreeError
from .generators import parallel_chain, random_tree, shaped_tree, uniform_weights
from .oracles import AdditiveOracle, ExactOracle, NoisyOracle, vote_size
from .reconstruct import reconstruct_tree, reconstruct_weighted
from .treeio import load_tree, save_tree
from .trees import (
    DirectedRootedTree,
    WeightedDirectedRootedTree,
    from_edges,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
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
