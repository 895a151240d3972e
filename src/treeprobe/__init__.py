"""treeprobe: reconstruct hidden directed rooted trees from path queries."""

from .bench import (
    BenchRecord,
    bench_run,
    records_to_csv,
    run_single,
)
from .errors import (
    InconsistentOracleError,
    InfeasibleDegreeError,
    InvalidTreeError,
    TreeFormatError,
)
from .generators import parallel_chain, random_tree, shaped_tree, uniform_weights
from .oracles import AdditiveOracle, ExactOracle, NoisyOracle, vote_size
from .reconstruct import (
    ReconstructionStats,
    reconstruct_tree,
    reconstruct_weighted,
)
from .treeio import format_tree, load_tree, parse_tree, save_tree
from .trees import (
    ROOT,
    DirectedRootedTree,
    WeightedDirectedRootedTree,
    from_edges,
    max_node_degree,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "ROOT",
    "AdditiveOracle",
    "BenchRecord",
    "DirectedRootedTree",
    "ExactOracle",
    "InconsistentOracleError",
    "InfeasibleDegreeError",
    "InvalidTreeError",
    "NoisyOracle",
    "ReconstructionStats",
    "TreeFormatError",
    "WeightedDirectedRootedTree",
    "bench_run",
    "format_tree",
    "from_edges",
    "load_tree",
    "max_node_degree",
    "parallel_chain",
    "parse_tree",
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
