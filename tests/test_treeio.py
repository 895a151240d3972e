"""Text serialization round trips and malformed-input rejection."""

from __future__ import annotations

import pytest

from treeprobe import (
    InvalidTreeError,
    WeightedDirectedRootedTree,
    from_edges,
    load_tree,
    save_tree,
    validate_tree,
)
from treeprobe.treeio import format_tree, parse_tree

from conftest import NOT_A_TREE
from reference import tree_equals


def test_plain_round_trip(bent_tree):
    text = format_tree(bent_tree)
    back = parse_tree(text)
    assert tree_equals(back, bent_tree)
    assert back.degree_bound == 3  # tightest bound; the format carries none


def test_weighted_round_trip_is_float_exact(spine_tree):
    weights = {edge: (at + 1) / 7 for at, edge in enumerate(sorted(spine_tree.edges()))}
    weighted = WeightedDirectedRootedTree(spine_tree, weights)
    back = parse_tree(format_tree(weighted))
    assert isinstance(back, WeightedDirectedRootedTree)
    assert tree_equals(back.tree, spine_tree)
    assert dict(back.weights) == weights  # repr() writing makes == exact


def test_node_line_order_does_not_matter():
    straight = parse_tree("3\n0 -1\n1 0\n2 1\n")
    shuffled = parse_tree("3\n2 1\n0 -1\n1 0\n")
    assert tree_equals(straight, shuffled)


def test_save_and_load(tmp_path, bent_tree):
    target = tmp_path / "tree.txt"
    save_tree(bent_tree, target)
    assert tree_equals(load_tree(target), bent_tree)


@pytest.mark.parametrize(
    "tree",
    [validate_tree([-1, False, True], 2), from_edges(3, [(False, True), (True, 2)])],
    ids=["validate_tree", "from_edges"],
)
def test_bool_ids_are_saved_as_ints(tmp_path, tree):
    # A bool is an int, so both accept it as a parent id; this wrote
    # "1 False", a line parse_tree refuses.
    target = tmp_path / "tree.txt"
    save_tree(tree, target)
    assert target.read_text() == "3\n0 -1\n1 0\n2 1\n"
    assert tree_equals(load_tree(target), tree)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_tree(tmp_path / "absent.txt")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("   \n\n", "empty input"),
        # The first line must be the bare count.
        ("2 extra\n0 -1\n1 0\n", "first line must be the node count, got ['2', 'extra']"),
        ("x\n0 -1\n", "bad node count: 'x'"),
        ("0\n", "node count must be >= 1, got 0"),
        ("-3\n", "node count must be >= 1, got -3"),
        ("3\n0 -1\n1 0\n", "expected 3 node lines, got 2"),
        ("2\n0 -1\n1 0\n2 1\n", "expected 2 node lines, got 3"),
        ("2\n0 -1\n1 0 0.5 junk\n", "bad node line: '1 0 0.5 junk'"),
        ("2\n0 -1\n7 0\n", "node id 7 out of range"),
        ("2\n0 -1\n0 -1\n", "node 0 listed twice"),
        ("2\nzero -1\n1 0\n", "bad node id: 'zero'"),
        ("2\n0 -1\n1 zero\n", "bad parent id: 'zero'"),
        ("2\n0 -1 0.25\n1 0 0.25\n", "the root line cannot carry a weight"),
        ("3\n0 -1\n1 0 0.25\n2 1\n", "either all non-root lines carry weights or none do"),
        ("2\n0 -1\n1 0 heavy\n", "bad weight 'heavy'"),
        # Weights must be positive; the weighted tree's own message passes through.
        ("2\n0 -1\n1 0 0.0\n", "weight for edge (0, 1) must be > 0, got 0.0"),
        ("2\n0 -1\n1 0 -2.5\n", "weight for edge (0, 1) must be > 0, got -2.5"),
        ("2\n0 1\n1 0\n", "not a valid tree: no root: every parent chain must then loop"),
        ("2\n0 -1\n1 -1\n", "not a valid tree: nodes [0, 1] all claim to be the root"),
    ],
)
def test_malformed_inputs_rejected(text, message):
    with pytest.raises(InvalidTreeError) as err:
        parse_tree(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, reason", NOT_A_TREE)
def test_a_file_that_is_no_tree_says_why(text, reason):
    with pytest.raises(InvalidTreeError) as err:
        parse_tree(text)
    assert str(err.value) == f"not a valid tree: {reason}"


def test_single_node_round_trip():
    tree = validate_tree([-1], 1)
    assert format_tree(tree) == "1\n0 -1\n"
    assert tree_equals(parse_tree("1\n0 -1\n"), tree)
