"""Command-line interface.

Exit codes: 0 success, 1 verify mismatch or failed reconstruction, 2 usage
error, 3 IO error or a tree file that describes no tree (InvalidTreeError).
The library checks a run's arguments, and a ValueError it raises on them,
an InvalidTreeError on a bound no tree fits included, is a usage error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import CSV_HEADER, REGIMES, _csv_row, _grid_runs, run_single
from .errors import InvalidTreeError
from .generators import SHAPES, parallel_chain, random_tree, shaped_tree, uniform_weights
from .treeio import load_tree, save_tree
from .trees import DirectedRootedTree, WeightedDirectedRootedTree, from_edges

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_IO = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (OSError, InvalidTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeprobe",
        description="Reconstruct hidden directed rooted trees from path queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a hidden tree file")
    gen.add_argument(
        "--shape",
        required=True,
        choices=("random", *SHAPES, "parallel-chain"),
    )
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--degree", type=int, help="bound for random / branch count for parallel-chain")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--weights",
        choices=("none", "uniform"),
        default="none",
        help="attach uniform (0,1] edge weights",
    )
    gen.set_defaults(run=_cmd_generate)

    rec = sub.add_parser("reconstruct", help="reconstruct a hidden tree file through a simulated oracle")
    rec.add_argument("--tree", required=True, help="hidden tree file (the simulation's ground truth)")
    rec.add_argument("--regime", choices=REGIMES, default="exact")
    rec.add_argument("--eps", type=float, help="noise rate, noisy regime only")
    rec.add_argument("--delta", type=float, help="failure probability budget, noisy regime only")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out", help="write the reconstructed tree here")
    rec.add_argument("--stats", action="store_true", help="print query and round counters")
    rec.set_defaults(run=_cmd_reconstruct)

    ben = sub.add_parser("bench", help="run a seeded benchmark grid")
    ben.add_argument("--regime", choices=REGIMES, default="exact")
    ben.add_argument("--nodes", type=_int_list, required=True, help="comma-separated sizes")
    ben.add_argument("--degrees", type=_int_list, required=True, help="comma-separated bounds")
    ben.add_argument("--reps", type=int, default=10)
    ben.add_argument("--eps", type=float)
    ben.add_argument("--delta", type=float)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--csv", required=True, help="output CSV path")
    ben.set_defaults(run=_cmd_bench)

    ver = sub.add_parser("verify", help="compare two tree files")
    ver.add_argument("--expected", required=True)
    ver.add_argument("--actual", required=True)
    ver.set_defaults(run=_cmd_verify)

    return parser


def _cmd_generate(args, parser) -> int:
    n, shape = args.nodes, args.shape
    try:
        if shape == "random":
            if args.degree is None:
                parser.error("--shape random needs --degree")
            tree = random_tree(n, args.degree, seed=args.seed)
        elif shape == "parallel-chain":
            branches = args.degree
            if branches is None or branches < 1:
                parser.error("--shape parallel-chain needs --degree (branch count)")
            if (n - 1) % branches != 0:
                parser.error("parallel-chain needs --nodes = branches * length + 1")
            tree = parallel_chain(branches, (n - 1) // branches)
        else:
            # A fixed shape has no bound to set, so a --degree would be dropped.
            if args.degree is not None:
                parser.error("--degree applies only to --shape random and parallel-chain")
            tree = shaped_tree(shape, n)
    except ValueError as exc:
        parser.error(str(exc))
    out: DirectedRootedTree | WeightedDirectedRootedTree = tree
    if args.weights == "uniform":
        out = uniform_weights(tree, seed=args.seed + 1)
    save_tree(out, args.out)
    return EXIT_OK


def _cmd_reconstruct(args, parser) -> int:
    hidden = load_tree(args.tree)
    plain = hidden.tree if isinstance(hidden, WeightedDirectedRootedTree) else hidden
    try:
        outcome = run_single(
            args.regime, hidden, plain.degree_bound, args.seed, eps=args.eps, delta=args.delta
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.stats:
        print(f"success={str(outcome.success).lower()}")
        print(f"raw_queries={outcome.raw_queries}")
        print(f"logical_queries={outcome.logical_queries}")
        print(f"rounds={outcome.stats.rounds_total}")
        print(f"max_depth={outcome.stats.recursion_depth_max}")
        print(f"audit_queries={outcome.stats.audit_queries}")
        if outcome.votes is not None:
            print(f"votes={outcome.votes}")
            print(f"lead={outcome.lead}")
    if not outcome.success:
        print("error: reconstruction failed", file=sys.stderr)
        return EXIT_MISMATCH
    if args.out:
        # A successful run recovered exactly the hidden tree's edges.
        result: DirectedRootedTree | WeightedDirectedRootedTree
        result = from_edges(plain.n, outcome.edges)
        if outcome.weights is not None:
            result = WeightedDirectedRootedTree(result, outcome.weights)
        save_tree(result, args.out)
    return EXIT_OK


def _cmd_bench(args, parser) -> int:
    try:
        runs = _grid_runs(
            args.regime, args.nodes, args.degrees, args.reps, args.seed, args.eps, args.delta
        )
    except ValueError as exc:
        parser.error(str(exc))
    # Each row is written as its run ends, so one run is held at a time.
    count = 0
    with open(args.csv, "w", encoding="ascii") as fp:
        fp.write(CSV_HEADER + "\n")
        for run in runs:
            fp.write(_csv_row(run))
            count += 1
    print(f"wrote {count} records to {args.csv}")
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    expected = load_tree(args.expected)
    actual = load_tree(args.actual)
    exp_plain = expected.tree if isinstance(expected, WeightedDirectedRootedTree) else expected
    act_plain = actual.tree if isinstance(actual, WeightedDirectedRootedTree) else actual
    same = exp_plain.parent == act_plain.parent
    if (
        same
        and isinstance(expected, WeightedDirectedRootedTree)
        and isinstance(actual, WeightedDirectedRootedTree)
    ):
        same = dict(expected.weights) == dict(actual.weights)
    if same:
        print("match")
        return EXIT_OK
    print("mismatch", file=sys.stderr)
    return EXIT_MISMATCH


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


if __name__ == "__main__":
    sys.exit(main())
