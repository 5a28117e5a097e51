"""Command-line pipeline: generate, select, evaluate, dump-edges.

Exit codes: 0 success, 1 usage, input or configuration error (diagnostic on
stderr naming the offending file or flag), 2 internal error.  ``main`` alone
maps outcomes to exit codes: argparse's usage exit becomes 1, and every error
the pipeline raises on bad input is a ``ValueError`` or, for a file, an
``OSError``; anything else is an internal error.  All real-valued output
is printed with 6 decimal places so repeated runs diff cleanly; given the
same inputs and flags, output files are byte-identical.  Every file is
written by ``graph.write_csv``, so the ``--out`` files quote ids the way the
input files do and read back with ``csv.reader`` one row per seed or edge.

Each command runs with the cyclic garbage collector paused.  The pipeline
builds one object per user or edge and no reference cycles, so reference
counting frees all of it, while the collector would re-walk every live
object each time it ran.  The collector's prior setting is restored on
return, so in-process callers keep their own.

``main`` returns the exit code, for in-process callers and the tests.  The
two process entry points, ``python -m evimax.cli`` and the ``evimax``
console script of ``[project.scripts]``, run ``console`` instead: it calls
``main``, flushes stdout and stderr, and ends the process with ``os._exit``.
Every output file is closed by then, so skipping the interpreter's teardown,
which would free the graph and every record object by object, loses
nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Callable, NoReturn, Sequence

from .evaluate import CURVE_COLUMNS, compare_configs
from .fusion import DEFAULT_LAMBDA, FusedEdges, ReliabilityConfig, fuse_all
from .graph import INDICATOR_NAMES, load_graph, write_csv, write_graph
from .maximize import _check_k, select_celf
from .spread import InfluenceField
from .synthetic import generate_synthetic

def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command; ``args.run(args)`` runs the one given."""
    # An option is read only when spelled in full, so an option added later
    # cannot change what an abbreviation in a script means.
    parser = argparse.ArgumentParser(prog="evimax", description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, help: str, run: Callable[[argparse.Namespace], None], outputs: bool = False
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        role = "output" if outputs else "input"
        # generate writes all four files; the other commands read the edges
        # file and any of the other three that is given.
        p.add_argument("--edges", required=True, help=f"edges CSV {role} (src,dst)")
        p.add_argument("--mentions", required=outputs, help=f"mentions CSV {role}")
        p.add_argument("--retweets", required=outputs, help=f"retweets CSV {role}")
        p.add_argument("--activity", required=outputs, help=f"per-user activity CSV {role}")
        if not outputs:
            p.add_argument("--out", required=True, help="output file path")
            p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                           help="reliability shape parameter (default: %(default)s)")
        return p

    def add_k(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, default=50, help="seed count (default: %(default)s)")

    def add_alpha(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=float,
                       help="fixed reliability in [0, 1]; omit for estimated mode. "
                            "At 1 no indicator is discounted, so an edge whose "
                            "indicators fully contradict (conflict K >= 1 - 1e-12) "
                            "stops the run with exit 1 naming that edge")

    p_gen = add_command("generate", "emit a synthetic four-file dataset", _cmd_generate,
                        outputs=True)
    p_gen.add_argument("--users", type=int, default=1000,
                       help="number of users (default: %(default)s)")
    p_gen.add_argument("--n-edges", dest="n_edges", type=int, default=2000,
                       help="number of follow edges (default: %(default)s)")
    p_gen.add_argument("--seed", type=int, default=42, help="RNG seed (default: %(default)s)")

    p_sel = add_command("select", "select a top-k influencer seed set", _cmd_select)
    add_alpha(p_sel)
    add_k(p_sel)

    p_eval = add_command("evaluate", "compare reliability configurations", _cmd_evaluate)
    add_k(p_eval)
    p_eval.add_argument("--configs", default="fixed:0,fixed:0.2,estimated",
                        help="comma-separated sweep of estimated and fixed:<alpha> "
                             "(default: %(default)s)")

    add_alpha(add_command("dump-edges", "per-edge fusion diagnostics", _cmd_dump_edges))
    return parser


def _cmd_generate(args: argparse.Namespace) -> None:
    g, activities = generate_synthetic(seed=args.seed, n_users=args.users, n_edges=args.n_edges)
    write_graph(g, activities, args.edges, args.mentions, args.retweets, args.activity)


def _fused(args: argparse.Namespace) -> FusedEdges:
    """The fused edges of a single-config command; the config is checked first."""
    cfg = ReliabilityConfig(alpha=args.alpha, lam=args.lam)
    # The activity map is not read; dropping it frees it before fusion.
    g = load_graph(args.edges, args.mentions, args.retweets, args.activity)[0]
    return fuse_all(g, cfg)


def _cmd_select(args: argparse.Namespace) -> None:
    _check_k(args.k)
    influence_field = InfluenceField.from_graph(_fused(args))
    selection = select_celf(influence_field, args.k)
    write_csv(
        args.out,
        ("rank", "user", "marginal_gain", "cumulative_sigma"),
        ((str(choice.rank), choice.user,
          f"{choice.gain:.6f}", f"{choice.cumulative_sigma:.6f}")
         for choice in selection.choices),
    )


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _check_k(args.k)
    # Blocks of the output are told apart by config name, so every token
    # must name a config, and a different one from every token before it.
    configs: list[ReliabilityConfig] = []
    for position, token in enumerate(args.configs.split(","), 1):
        if not token.strip():
            raise ValueError(f"--configs: token {position} of {args.configs!r} is empty")
        cfg = ReliabilityConfig.parse(token, lam=args.lam)
        if cfg in configs:
            raise ValueError(f"--configs: {token.strip()!r} repeats config {cfg.name}")
        configs.append(cfg)
    g, activities = load_graph(args.edges, args.mentions, args.retweets, args.activity)
    entries = compare_configs(g, activities, configs, args.k)
    write_csv(
        args.out,
        ("config", "rank", "user", *CURVE_COLUMNS),
        ((entry.name, str(choice.rank), choice.user, *map(str, row))
         for entry in entries
         for choice, row in zip(entry.selection.choices, entry.curve)),
    )


def _cmd_dump_edges(args: argparse.Namespace) -> None:
    fused = _fused(args)
    # Every edge of one indicator vector prints the same numbers, so each
    # record's cells are formatted once.
    cells = [
        tuple(f"{w:.6f}" for w in record.weights)
        + tuple(f"{a:.6f}" for a in record.reliabilities)
        + (f"{record.inf:.6f}",)
        for record in fused.records
    ]
    n = len(INDICATOR_NAMES)
    write_csv(
        args.out,
        ("src", "dst")
        + tuple(f"w_{j + 1}" for j in range(n))
        + tuple(f"alpha_{j + 1}" for j in range(n))
        + ("inf",),
        (edge + row for edge, row in fused.per_edge(cells)),
    )


def main(argv: Sequence[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error and 0 after --help.
            return 1 if exc.code else 0
        try:
            args.run(args)
        except (ValueError, OSError) as exc:
            print(f"evimax {args.command}: error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # pragma: no cover - defensive
            print(f"evimax {args.command}: internal error: {exc}", file=sys.stderr)
            return 2
        return 0
    finally:
        if collecting:
            gc.enable()


def console() -> NoReturn:
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and end the process."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
