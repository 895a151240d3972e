"""Refusals: every public entry ends in a result or a typed error.

A node count and a degree bound pass one gate, ``check_degree_feasible``,
so every entry that takes them refuses the same bad value with the same
``InvalidTreeError`` before any work; an entry that takes a count alone
passes the gate's count half, ``check_node_count``. The other arguments
are refused by the check their entry already has. A Hypothesis property
feeds the entries ints, floats, NaN, inf, None and bools, and accepts only
a return, a ``ValueError`` (``InvalidTreeError`` included) or an
``InconsistentOracleError``.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprobe import (
    AdditiveOracle,
    ExactOracle,
    InconsistentOracleError,
    InvalidTreeError,
    NoisyOracle,
    bench_run,
    from_edges,
    parallel_chain,
    random_tree,
    reconstruct_tree,
    reconstruct_weighted,
    run_single,
    shaped_tree,
    uniform_weights,
    validate_tree,
    vote_size,
)
from treeprobe import oracles
from treeprobe.bench import REGIMES
from treeprobe.generators import SHAPES

from conftest import parent_array_trees

NAN, INF = float("nan"), float("inf")


class _Untouchable:
    """An oracle that fails the test if it is asked anything."""

    def query(self, i, j):
        raise AssertionError(f"asked ({i}, {j}) before refusing")


@pytest.mark.parametrize(
    "call, refusal, message",
    [
        (lambda: validate_tree([-1, 0.0, 1], 3), InvalidTreeError,
         "parent of node 1 must be an int, got 0.0"),
        (lambda: validate_tree([-1, None], 3), InvalidTreeError,
         "parent of node 1 must be an int, got None"),
        # -1.0 equals the root sentinel, and a file saved from the tree
        # it made did not parse.
        (lambda: validate_tree([-1.0, 0], 3), InvalidTreeError,
         "parent of node 0 must be an int, got -1.0"),
        (lambda: shaped_tree("chain", 2.5), ValueError, "need an int n >= 1, got 2.5"),
        (lambda: parallel_chain(2.5, 3), ValueError,
         "need int branches and length >= 1, got 2.5 and 3"),
        (lambda: bench_run("exact", [5], [3], 2.5, 0), ValueError,
         "reps must be an int >= 0, got 2.5"),
        (lambda: NoisyOracle(shaped_tree("chain", 4), 0.1, seed=1, votes=2.5), ValueError,
         "vote count must be an odd int >= 1, got 2.5"),
        (lambda: NoisyOracle(shaped_tree("chain", 4), 0.1, seed=1, votes=3, lead=1.5),
         ValueError, r"lead must be an int in \[1, 2\] for 3 votes, got 1.5"),
        (lambda: vote_size(0.1, 0.1, 2.5, 3), InvalidTreeError,
         "node count must be an int, got 2.5"),
        (lambda: random_tree(None, 3, seed=1), InvalidTreeError,
         "node count must be an int, got None"),
    ],
)
def test_a_value_of_the_wrong_type_is_a_typed_refusal(call, refusal, message):
    # Each of these raised TypeError or AttributeError from deep inside the
    # entry, or from the vote table an oracle builds.
    with pytest.raises(refusal, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_a_vote_table_over_the_budget_is_refused_before_it_is_built(monkeypatch):
    # At the full lead this table is about 4e7 walk steps, which took
    # seconds to build; the refusal builds nothing.
    def fail(*args):
        raise AssertionError("built the vote table")

    monkeypatch.setattr(oracles, "_walk", fail)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        NoisyOracle(random_tree(10, 3, seed=1), 0.45, seed=1, votes=9001)
    assert time.perf_counter() - started < 0.1


def test_every_sized_vote_builds_its_oracle():
    # The oracle's budget is vote_size's, so every cell of this grid is
    # sized, none refused, and nothing vote_size returns is refused: 6
    # noise rates up to 0.45 x 4 failure budgets x 33 (n, d) cells up to
    # (10**5, 32). Its noise 0.45 cells take most of the 10 s it runs.
    tree = random_tree(10, 3, seed=1)
    grid = itertools.product(
        (0.01, 0.05, 0.1, 0.25, 0.4, 0.45),
        (1e-6, 1e-3, 0.1, 0.5),
        (2, 3, 5, 12, 60, 200, 400, 3000, 10**4, 3 * 10**4, 10**5),
        (2, 10, 32),
    )
    for noise, delta, n, d in grid:
        votes, lead = vote_size(noise, delta, n, d)
        oracle = NoisyOracle(tree, noise, seed=1, votes=votes, lead=lead)
        assert (oracle.votes, oracle.lead) == (votes, lead)


def _weighted_run(n, bound):
    hidden = uniform_weights(random_tree(n, 3, seed=0), seed=1)
    return run_single("weighted", hidden, bound, seed=0)


# Each entry as a call on (n, bound). run_single and validate_tree take no
# count of their own: they read it from the tree or the parent array.
GATED = {
    "reconstruct_tree": lambda n, bound: reconstruct_tree(
        _Untouchable(), n, bound, random.Random(0)
    ),
    "vote_size": lambda n, bound: vote_size(0.1, 0.1, n, bound),
    "random_tree": lambda n, bound: random_tree(n, bound, seed=0),
    "run_single_weighted": _weighted_run,
    "validate_tree": lambda n, bound: validate_tree(shaped_tree("chain", n).parent, bound),
}
# The entries that take a count, as calls on (n, bound). reconstruct_weighted
# reads no bound and passes only the gate's count half, check_node_count.
COUNTED = {
    **{entry: GATED[entry] for entry in ("reconstruct_tree", "vote_size", "random_tree")},
    "reconstruct_weighted": lambda n, bound: reconstruct_weighted(_Untouchable(), n),
}


class TestOneGateOneAnswer:
    @pytest.mark.parametrize(
        "bound, message",
        [
            (NAN, "degree bound must be an int, got nan"),
            (2.5, "degree bound must be an int, got 2.5"),
            (None, "degree bound must be an int, got None"),
            (0, "degree bound must be >= 1, got 0"),
            (1, "no tree on 6 nodes fits degree bound 1"),
        ],
    )
    @pytest.mark.parametrize("entry", sorted(GATED))
    def test_a_bad_bound_is_refused_alike(self, monkeypatch, entry, bound, message):
        monkeypatch.setattr(AdditiveOracle, "query", _Untouchable.query)
        with pytest.raises(InvalidTreeError) as err:
            GATED[entry](6, bound)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "n, message",
        [
            (2.5, "node count must be an int, got 2.5"),
            (None, "node count must be an int, got None"),
            (-1, "node count must be >= 0, got -1"),
        ],
    )
    @pytest.mark.parametrize("entry", sorted(COUNTED))
    def test_a_bad_count_is_refused_alike(self, entry, n, message):
        with pytest.raises(InvalidTreeError) as err:
            COUNTED[entry](n, 3)
        assert str(err.value) == message


# The fuzz draws. A count stays small, since the drivers and generators
# build lists of n before their first query; eps stays at most 0.45 and a
# finite delta at least 1e-6, since vote sizing near eps 1/2 or delta 0
# takes seconds.
SPECIALS = st.sampled_from([NAN, INF, -INF])
ANY = st.one_of(
    st.integers(-3, 32), st.floats(-3.0, 32.0), SPECIALS, st.none(), st.booleans()
)
EPS = st.one_of(st.floats(-1.0, 0.45), st.integers(-1, 1), SPECIALS, st.none(), st.booleans())
DELTA = st.one_of(
    st.floats(1e-6, 2.0), st.floats(-1.0, 0.0), st.integers(-1, 1), SPECIALS, st.none(),
    st.booleans(),
)


def _size(n):
    """The node count to build a hidden tree on: n itself when it is one."""
    return n if isinstance(n, int) and 1 <= n <= 32 else 5


def _tree_driver(data):
    n, bound = data.draw(ANY), data.draw(ANY)
    oracle = ExactOracle(random_tree(_size(n), 3, seed=0))
    reconstruct_tree(oracle, n, bound, random.Random(0))


def _weighted_driver(data):
    n = data.draw(ANY)
    oracle = AdditiveOracle(uniform_weights(random_tree(_size(n), 3, seed=0), seed=1))
    reconstruct_weighted(oracle, n)


# The noisy regime needs both of eps and delta, and the others neither.
NOISE = st.one_of(st.just((None, None)), st.tuples(EPS, DELTA))


def _run_single(data):
    regime = data.draw(st.sampled_from(REGIMES))
    n = data.draw(st.integers(1, 32))
    hidden = uniform_weights(random_tree(n, 3, seed=n), seed=1)
    run_single(regime, hidden, data.draw(ANY), 0, *data.draw(NOISE))


def _bench_run(data):
    regime = data.draw(st.sampled_from(REGIMES))
    grid = st.lists(ANY, max_size=2)
    reps = st.one_of(st.integers(-1, 2), st.floats(-1.0, 2.0), SPECIALS, st.none(), st.booleans())
    nodes, degrees = data.draw(grid), data.draw(grid)
    bench_run(regime, nodes, degrees, data.draw(reps), 0, *data.draw(NOISE))


def _validate_tree(data):
    # A tree's parent array with one entry redrawn reaches the checks past
    # the root count far more often than an arbitrary list does.
    parent = list(data.draw(parent_array_trees(max_n=8)).parent)
    parent[data.draw(st.integers(0, len(parent) - 1))] = data.draw(ANY)
    parent = data.draw(st.one_of(st.just(parent), st.lists(ANY, max_size=8)))
    validate_tree(parent, data.draw(ANY))


def _from_edges(data):
    tree = data.draw(parent_array_trees(max_n=8))
    edges = [list(edge) for edge in tree.edges()]
    if edges:
        edge = edges[data.draw(st.integers(0, len(edges) - 1))]
        edge[data.draw(st.integers(0, 1))] = data.draw(ANY)
    from_edges(data.draw(st.one_of(st.just(tree.n), ANY)), [tuple(edge) for edge in edges])


FUZZED = {
    "reconstruct_tree": _tree_driver,
    "reconstruct_weighted": _weighted_driver,
    "vote_size": lambda data: vote_size(
        data.draw(EPS), data.draw(DELTA), data.draw(ANY), data.draw(ANY)
    ),
    "random_tree": lambda data: random_tree(data.draw(ANY), data.draw(ANY), seed=0),
    "shaped_tree": lambda data: shaped_tree(
        data.draw(st.sampled_from([*SHAPES, "ring"])), data.draw(ANY)
    ),
    "parallel_chain": lambda data: parallel_chain(data.draw(ANY), data.draw(ANY)),
    "validate_tree": _validate_tree,
    "from_edges": _from_edges,
    "run_single": _run_single,
    "bench_run": _bench_run,
}


@pytest.mark.parametrize("entry", sorted(FUZZED))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_entry_returns_or_refuses_with_a_typed_error(entry, data):
    try:
        FUZZED[entry](data)
    except (ValueError, InconsistentOracleError):
        pass

