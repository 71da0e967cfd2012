"""Command-line front end.

Every subcommand renders one deterministic text blob: identical
invocations give identical bytes, so outputs diff cleanly.  Results go
to stdout unless --out is given, in which case the file is written to
a temp name and renamed into place, so a crash never leaves a partial
file behind.

Exit codes: 0 success, 1 usage or value error, 2 size-cap violation,
3 I/O failure.
"""

import argparse
import contextlib
import os
import re
import sys
import tempfile

from .core import LimitError, add_recursive, ensure_within
from .tree import (
    DEFAULT_TREE_CAP,
    _chunks,
    _dot_lines,
    _dp_stats,
    _json_lines,
    classify_node,
    predecessors_of,
)

# matrix, fractal, triangle and goldbach import their modules (and json) when
# they run, so that `tree` and `stats` start without loading them.

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, but 2 is reserved for cap
    # violations here, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nat(text):
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a decimal natural number, got {text!r}")
    return int(text)


def _fmt(value, binary):
    return format(value, "b") if binary else str(value)


def _active_cap(args):
    """Size cap for this invocation: --limit, else CVTX_LIMIT, else the
    per-module default (signalled by None)."""
    if args.limit is not None:
        return args.limit
    env = os.environ.get("CVTX_LIMIT")
    if env is None:
        return None
    if not re.fullmatch(r"\d+", env):
        raise ValueError(f"CVTX_LIMIT must be a decimal natural number, got {env!r}")
    return int(env)


def _write_output(text, path):
    # tree, matrix, fractal, triangle and goldbach --per-n stream lines
    lines = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(lines)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".cvtxor-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cmd_add(args):
    trace = add_recursive(args.x, args.y)
    lines = [_fmt(trace.sum, args.binary)]
    if args.trace:
        lines.append(
            " ".join(f"({_fmt(a, args.binary)},{_fmt(b, args.binary)})" for a, b in trace.steps)
        )
    return "\n".join(lines) + "\n"


def _cmd_classify(args):
    return classify_node((args.x, args.y)).value + "\n"


def _cmd_preds(args):
    ensure_within(args.x + args.y, _active_cap(args), DEFAULT_TREE_CAP, "pair total")
    pairs = sorted(predecessors_of((args.x, args.y)))
    return "".join(f"({_fmt(a, args.binary)},{_fmt(b, args.binary)})\n" for a, b in pairs)


def _cmd_tree(args):
    ensure_within(args.n, _active_cap(args), DEFAULT_TREE_CAP, "tree sum")
    if args.format == "json":
        return _json_lines(args.n, _chunks(args.n))
    return _dot_lines(args.n, _chunks(args.n, depths=False))


def _cmd_stats(args):
    ensure_within(args.n, _active_cap(args), DEFAULT_TREE_CAP, "tree sum")
    st = _dp_stats(args.n)
    avg = st.average_depth
    per_depth = " ".join(f"{d}:{count}" for d, count in st.nodes_per_depth.items())
    return (
        f"node_count: {st.node_count}\n"
        f"leaf_count: {st.leaf_count}\n"
        f"max_depth: {st.max_depth}\n"
        f"average_depth: {avg} ({avg.numerator / avg.denominator:.6f})\n"
        f"nodes_per_depth: {per_depth}\n"
    )


def _cmd_matrix(args):
    from .matrices import MatrixKind, _stream_csv

    return _stream_csv(MatrixKind(args.kind), args.n_max, _active_cap(args))


def _cmd_fractal(args):
    from .numtheory import _stream_pgm

    return _stream_pgm(args.grid_limit, cap=_active_cap(args))


def _cmd_triangle(args):
    from .numtheory import DEFAULT_GRID_CAP, prime_sieve

    if args.n < 2 or args.n % 2:
        raise ValueError("triangle bound must be even and >= 2")
    ensure_within(args.n, _active_cap(args), DEFAULT_GRID_CAP, "triangle bound")
    sieve = prime_sieve(args.n)
    return (
        f"{n}: "
        + " ".join(
            _fmt((k & (n - k)) << 1, args.binary) + ("*" if sieve[k] and sieve[n - k] else "")
            for k in range(1, n, 2)
        )
        + "\n"
        for n in range(2, args.n + 1, 2)
    )


def _per_n_lines(head, totals):
    """The summary's json.dumps head reopened, then each total's "per_n" entry in its layout."""
    yield head[:-2] + ',\n  "per_n": ['
    for i, (n, splits) in enumerate(totals):
        pairs = ",".join(
            f'\n        {{\n          "p": {p},\n          "q": {n - p},\n'
            f'          "class": "{c}",\n          "depth": {d}\n        }}'
            for p, c, d in splits
        )
        pairs = f"[{pairs}\n      ]" if pairs else "[]"
        yield f'{"," if i else ""}\n    {{\n      "n": {n},\n      "pairs": {pairs}\n    }}'
    yield "\n  ]\n}\n"


def _cmd_goldbach(args):
    import json

    from .numtheory import _splits, _sweep

    summary, sieve = _sweep(args.start, args.stop, _active_cap(args))
    head = json.dumps({
        "range": [summary.start, summary.stop],
        "checked": summary.checked,
        "counterexamples": list(summary.counterexamples),
        "all_odd_leaf_count": summary.all_odd_leaf_count,
    }, indent=2)
    totals = _splits(range(args.start, args.stop + 1, 2), sieve)  # lazy: scans when written
    return _per_n_lines(head, totals) if args.per_n else head + "\n"


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write atomically to PATH instead of stdout")
    common.add_argument("--limit", type=_nat, metavar="N", help="override the construction size cap")
    common.add_argument(
        "--binary",
        action="store_true",
        help="render numbers in binary where the format allows (add, preds, triangle)",
    )

    parser = _Parser(prog="cvtxor", description="carry/xor split addition toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("add", parents=[common], help="add two naturals by carry/xor splitting")
    p.add_argument("x", type=_nat)
    p.add_argument("y", type=_nat)
    p.add_argument("--trace", action="store_true", help="also print the (carry, partial) steps")
    p.set_defaults(handler=_cmd_add)

    p = sub.add_parser("classify", parents=[common], help="name the node class of a pair")
    p.add_argument("x", type=_nat)
    p.add_argument("y", type=_nat)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("preds", parents=[common], help="list the pairs that step to this one")
    p.add_argument("x", type=_nat)
    p.add_argument("y", type=_nat)
    p.set_defaults(handler=_cmd_preds)

    p = sub.add_parser("tree", parents=[common], help="emit the convergence tree for a sum")
    p.add_argument("n", type=_nat)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("stats", parents=[common], help="summary statistics of one tree")
    p.add_argument("n", type=_nat)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("matrix", parents=[common], help="emit an analysis matrix as CSV")
    p.add_argument("--kind", choices=("depth", "parent", "freq"), required=True)
    p.add_argument("--max", dest="n_max", type=_nat, required=True, metavar="N")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("fractal", parents=[common], help="emit the odd-pair carry grid as PGM")
    # dest must not shadow the shared --limit cap flag
    p.add_argument("--max", dest="grid_limit", type=_nat, required=True, metavar="L")
    p.set_defaults(handler=_cmd_fractal)

    p = sub.add_parser(
        "triangle", parents=[common], help="palindromic carry rows with prime splits marked"
    )
    p.add_argument("n", type=_nat)
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("goldbach", parents=[common], help="prime-split sweep over even totals")
    p.add_argument("--from", dest="start", type=_nat, required=True, metavar="A")
    p.add_argument("--to", dest="stop", type=_nat, required=True, metavar="B")
    p.add_argument("--per-n", dest="per_n", action="store_true", help="include per-total detail")
    p.set_defaults(handler=_cmd_goldbach)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _write_output(args.handler(args), args.out)
    except (LimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, LimitError) else 3 if isinstance(exc, OSError) else 1
    return 0


def main() -> int:
    return run(sys.argv[1:])
