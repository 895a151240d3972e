"""Per-layer tracing from outside the program.

The tracer wraps public functions and oracle methods of ``treeprobe`` by
name, for the duration of a ``with`` block. Each wrapped call is a span; a
span's self time is its duration minus the time of the wrapped calls it
made. Oracle calls are spans too, so a phase's self time excludes the
oracle. An oracle call made straight from a phase span (the outermost
oracle layer) is one logical query, charged to that phase.

A name that no longer exists is recorded as absent and its metrics read 0,
so a refactor that deletes a helper does not break the benchmark.
"""

from __future__ import annotations

import sys
import time

# Span label -> (module, function) pairs it covers.
PHASES = {
    "bench.run_single": [("bench", "run_single")],
    "reconstruct.driver": [("reconstruct", "reconstruct_tree")],
    "reconstruct.weights": [("reconstruct", "reconstruct_weighted")],
    "reconstruct.skeleton_path": [("reconstruct", "reconstruct_skeleton_path")],
    "reconstruct.lca": [("reconstruct", "find_lca"), ("reconstruct", "find_root_path")],
    "reconstruct.sort": [("reconstruct", "sort_by_ancestry")],
    "reconstruct.bag_search": [("reconstruct", "find_bag")],
    "reconstruct.split": [("reconstruct", "split_tree")],
    "reconstruct.separator": [("reconstruct", "find_even_separator")],
    "generators": [
        ("generators", "random_tree"),
        ("generators", "parallel_chain"),
        ("generators", "shaped_tree"),
        ("generators", "uniform_weights"),
    ],
    "trees.validate_tree": [("trees", "validate_tree")],
}

# Oracle layer label -> (class, method) pairs it covers.
ORACLES = {
    "oracles.base": [
        ("ExactOracle", "query"),
        ("NoisyOracle", "noisy_query"),
        ("AdditiveOracle", "additive_query"),
    ],
    "oracles.majority": [("MajorityOracle", "query")],
    "oracles.counting": [
        ("CountingOracle", "query"),
        ("CountingOracle", "noisy_query"),
        ("CountingOracle", "additive_query"),
    ],
}

# The hidden-tree oracle method each regime evaluates.
BASE_METHODS = {
    "exact": ("ExactOracle", "query"),
    "noisy": ("NoisyOracle", "noisy_query"),
    "weighted": ("AdditiveOracle", "additive_query"),
}


class Tracer:
    """Span counts and self times, per-phase logical queries, distinct pairs.

    ``calls[label]`` and ``self_s[label]`` accumulate over every traced
    call; ``queries[label]`` counts the logical queries a phase made
    directly. Call :meth:`end_run` after each reconstruction so distinct
    pairs are counted per run.
    """

    def __init__(self):
        self._acc: dict[str, list] = {}  # label -> [calls, self seconds]
        self._queries: dict[str, list] = {}  # phase label -> [logical queries]
        # Open spans as [child seconds, query cell of a phase or None for an
        # oracle]; the bottom frame catches queries made outside any phase.
        self._stack: list = [[0.0, self._query_cell("unattributed")]]
        self._pairs: set = set()
        self.accepted = 0
        self.distinct_pairs = 0
        self.present: dict[str, bool] = {}
        self.methods: set[tuple[str, str]] = set()
        self._undo: list = []

    @property
    def calls(self) -> dict[str, int]:
        return {label: acc[0] for label, acc in self._acc.items()}

    @property
    def self_s(self) -> dict[str, float]:
        return {label: acc[1] for label, acc in self._acc.items()}

    @property
    def queries(self) -> dict[str, int]:
        return {label: cell[0] for label, cell in self._queries.items()}

    @property
    def logical(self) -> int:
        return sum(cell[0] for cell in self._queries.values())

    def __enter__(self):
        import treeprobe
        from treeprobe import oracles

        modules = [m for k, m in sys.modules.items() if k.startswith("treeprobe")]
        for label, targets in PHASES.items():
            found = False
            for mod_name, fn_name in targets:
                fn = getattr(getattr(treeprobe, mod_name, None), fn_name, None)
                if fn is None:
                    continue
                found = True
                self._patch_everywhere(modules, fn, self._phase(label, fn))
            self.present[label] = found
        for label, targets in ORACLES.items():
            found = False
            for cls_name, meth in targets:
                cls = getattr(oracles, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                found = True
                self.methods.add((cls_name, meth))
                original = vars(cls)[meth]
                setattr(cls, meth, self._oracle(label, original))
                self._undo.append((cls, meth, original))
            self.present[label] = found
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def end_run(self) -> None:
        """Close one reconstruction: fold its distinct pairs into the total."""
        self.distinct_pairs += len(self._pairs)
        self._pairs.clear()

    def _query_cell(self, label: str) -> list:
        return self._queries.setdefault(label, [0])

    def _patch_everywhere(self, modules, fn, wrapper) -> None:
        # ``from .x import f`` binds f in other modules too; patch each binding.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _phase(self, label, fn):
        stack, clock = self._stack, time.perf_counter
        acc = self._acc.setdefault(label, [0, 0.0])
        cell = self._query_cell(label)
        count_accepts = label == "reconstruct.separator"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, cell]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += took - frame[0]
                parent[0] += took
            if count_accepts and result is not None:
                self.accepted += 1
            return result

        return wrapper

    def _oracle(self, label, method):
        stack, clock, pairs = self._stack, time.perf_counter, self._pairs
        acc = self._acc.setdefault(label, [0, 0.0])

        def wrapper(obj, i, j):
            parent = stack[-1]
            cell = parent[1]
            if cell is not None:
                cell[0] += 1
                pairs.add((i, j))
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return method(obj, i, j)
            finally:
                took = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += took - frame[0]
                parent[0] += took

        return wrapper
