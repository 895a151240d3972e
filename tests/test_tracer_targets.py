"""The benchmark's tracer wraps functions and oracle methods by name, and a
name it cannot find reads as 0 instead of failing. So renaming a wrapped
function would silently zero its per-layer metrics. These tests read the
tracer's tables, without running it, and check that every target that
resolves today still does."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import treeprobe
from treeprobe import oracles

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# (module, function) targets of the tracer's PHASES table that resolve.
FUNCTIONS = [
    ("bench", "run_single"),
    ("reconstruct", "reconstruct_tree"),
    ("reconstruct", "reconstruct_weighted"),
    ("reconstruct", "reconstruct_skeleton_path"),
    ("reconstruct", "sort_by_ancestry"),
    ("reconstruct", "find_even_separator"),
    ("generators", "random_tree"),
    ("generators", "parallel_chain"),
    ("generators", "shaped_tree"),
    ("generators", "uniform_weights"),
    ("trees", "validate_tree"),
]

# (class, method) targets of the tracer's ORACLES table that resolve.
METHODS = [("ExactOracle", "query")]


def _tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PHASES, module.ORACLES


PHASES, ORACLES = _tables()


@pytest.mark.parametrize("target", FUNCTIONS, ids="{0[0]}.{0[1]}".format)
def test_a_phase_target_still_resolves(target):
    assert any(target in targets for targets in PHASES.values())
    # The tracer's own lookup: an attribute of a treeprobe module.
    module, name = target
    assert callable(getattr(getattr(treeprobe, module, None), name, None))


@pytest.mark.parametrize("target", METHODS, ids="{0[0]}.{0[1]}".format)
def test_an_oracle_target_still_resolves(target):
    assert any(target in targets for targets in ORACLES.values())
    # The tracer's own lookup: a method defined on the class itself.
    cls, name = target
    assert name in vars(getattr(oracles, cls, object))


def test_no_other_target_resolves_unlisted():
    # A target that starts to resolve joins the lists above, so that a
    # later rename of it breaks here as well.
    functions = {
        target
        for targets in PHASES.values()
        for target in targets
        if getattr(getattr(treeprobe, target[0], None), target[1], None) is not None
    }
    methods = {
        target
        for targets in ORACLES.values()
        for target in targets
        if target[1] in vars(getattr(oracles, target[0], object))
    }
    assert functions == set(FUNCTIONS)
    assert methods == set(METHODS)
