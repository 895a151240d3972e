"""Plain-text serialization for trees.

Format::

    n
    <node> <parent> [weight]
    ...                         (one line per node, n lines total)

The root's parent is -1 and its line never carries a weight. Weighted trees
put the weight of the edge (parent -> node) in the third column of every
non-root line; weights are written with ``repr`` so reading them back gives
the identical float. Node order in the file is not significant.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import InvalidTreeError
from .trees import (
    ROOT,
    DirectedRootedTree,
    WeightedDirectedRootedTree,
    max_node_degree,
    validate_tree,
)

AnyTree = DirectedRootedTree | WeightedDirectedRootedTree


def format_tree(tree: AnyTree) -> str:
    """Render a tree (weighted or not) in the text format."""
    weights = None
    if isinstance(tree, WeightedDirectedRootedTree):
        weights = tree.weights
        tree = tree.tree
    lines = [str(tree.n)]
    for v, p in enumerate(tree.parent):
        if weights is not None and p != ROOT:
            lines.append(f"{v} {p:d} {weights[(p, v)]!r}")
        else:
            lines.append(f"{v} {p:d}")
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> AnyTree:
    """Parse the text format; returns a weighted tree iff weights appear.

    The degree bound of the returned tree is the smallest valid one (the
    maximum node degree), since the format does not carry a bound. Text
    that describes no tree raises InvalidTreeError, prefixed "not a valid
    tree: " when its lines parse but their parent array is no tree.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise InvalidTreeError("empty input")
    if len(rows[0]) != 1:
        raise InvalidTreeError(f"first line must be the node count, got {rows[0]}")
    n = _int(rows[0][0], "node count")
    if n < 1:
        raise InvalidTreeError(f"node count must be >= 1, got {n}")
    if len(rows) - 1 != n:
        raise InvalidTreeError(f"expected {n} node lines, got {len(rows) - 1}")

    parent = [None] * n
    weights: dict[tuple[int, int], float] = {}
    for row in rows[1:]:
        if len(row) not in (2, 3):
            raise InvalidTreeError(f"bad node line: {' '.join(row)!r}")
        v = _int(row[0], "node id")
        p = _int(row[1], "parent id")
        if not 0 <= v < n:
            raise InvalidTreeError(f"node id {v} out of range")
        if parent[v] is not None:
            raise InvalidTreeError(f"node {v} listed twice")
        parent[v] = p
        if len(row) == 3:
            if p == ROOT:
                raise InvalidTreeError("the root line cannot carry a weight")
            try:
                w = float(row[2])
            except ValueError:
                raise InvalidTreeError(f"bad weight {row[2]!r}") from None
            weights[(p, v)] = w

    try:
        # Every tree on n nodes fits bound n, and a parent out of range is
        # caught here before max_node_degree would index with it.
        tree = validate_tree(parent, n)  # type: ignore[arg-type]
    except InvalidTreeError as exc:
        raise InvalidTreeError(f"not a valid tree: {exc}") from None
    tree = dataclasses.replace(tree, degree_bound=max_node_degree(tree.parent))

    if not weights:
        return tree
    if len(weights) != n - 1:
        raise InvalidTreeError("either all non-root lines carry weights or none do")
    return WeightedDirectedRootedTree(tree, weights)


def save_tree(tree: AnyTree, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fp:
        fp.write(format_tree(tree))


def load_tree(path: str | os.PathLike) -> AnyTree:
    with open(path, "r", encoding="ascii") as fp:
        try:
            text = fp.read()
        except UnicodeDecodeError as exc:
            raise InvalidTreeError(f"not an ASCII tree file: {exc}") from None
    return parse_tree(text)


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidTreeError(f"bad {what}: {token!r}") from None
