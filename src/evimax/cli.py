"""Command-line pipeline: generate, select, evaluate, dump-edges.

Exit codes: 0 success, 1 input/configuration error (diagnostic on stderr
naming the offending file or flag), 2 internal error.  All real-valued output
is printed with 6 decimal places so repeated runs diff cleanly; given the
same inputs and flags, output files are byte-identical.  Every file is
written by ``graph.write_csv``, so the ``--out`` files quote ids the way the
input files do and read back with ``csv.reader`` one row per seed or edge.

An optional JSON config file (``--config``) can supply any long-option
value of the command it is given to, and nothing else.  Each value must be a
JSON string or number and is parsed exactly as the flag's text would be, so
``{"k": 2.0}`` is rejected like ``--k 2.0``.  Explicit flags always win
(precedence: flag > file > the default that ``--help`` shows).

Each command runs with the cyclic garbage collector paused.  The pipeline
builds one object per user or edge and no reference cycles, so reference
counting frees all of it, while the collector would re-walk every live
object each time it ran.  The collector's prior setting is restored on
return, so in-process callers keep their own.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Sequence

from .evaluate import CURVE_COLUMNS, EvaluationError, compare_configs
from .fusion import FusionError, ReliabilityConfig, fuse_all
from .graph import INDICATOR_NAMES, load_graph, write_csv, write_graph
from .maximize import select_celf
from .spread import InfluenceField
from .synthetic import generate_synthetic

# Input errors (ParseError, UnknownUserError, InvalidKError, ...) are all
# ValueError subclasses.
_CONFIG_ERRORS = (FusionError, EvaluationError, ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit code 1, not 2."""

    # Names where the text being parsed came from; set to the config file
    # while its values are parsed.
    source = ""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {self.source}{message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = _Parser(prog="evimax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str, outputs: bool = False) -> _Parser:
        p = sub.add_parser(name, help=help)
        role = "output" if outputs else "input"
        p.add_argument("--edges", help=f"edges CSV {role} (src,dst)")
        p.add_argument("--mentions", help=f"mentions CSV {role}")
        p.add_argument("--retweets", help=f"retweets CSV {role}")
        p.add_argument("--activity", help=f"per-user activity CSV {role}")
        p.add_argument("--config", help="JSON file of option values")
        if not outputs:
            p.add_argument("--out", help="output file path")
            p.add_argument("--lambda", dest="lam", type=float, default=5.0,
                           help="reliability shape parameter (default: %(default)s)")
        return p

    def add_k(p: _Parser) -> None:
        p.add_argument("--k", type=int, default=50, help="seed count (default: %(default)s)")

    def add_alpha(p: _Parser) -> None:
        p.add_argument("--alpha", type=float,
                       help="fixed reliability in [0, 1]; omit for estimated mode. "
                            "At 1 no indicator is discounted, so an edge whose "
                            "indicators fully contradict (conflict K >= 1 - 1e-12) "
                            "stops the run with exit 1 naming that edge")

    p_gen = add_command("generate", "emit a synthetic four-file dataset", outputs=True)
    p_gen.add_argument("--users", type=int, default=1000,
                       help="number of users (default: %(default)s)")
    p_gen.add_argument("--n-edges", dest="n_edges", type=int, default=2000,
                       help="number of follow edges (default: %(default)s)")
    p_gen.add_argument("--intensity", type=float, default=1.0,
                       help="activity volume multiplier; at most 10**7 mentions and "
                            "retweets and a mean of at most 10**6 tweets per user "
                            "may result (default: %(default)s)")
    p_gen.add_argument("--seed", type=int, default=42, help="RNG seed (default: %(default)s)")

    p_sel = add_command("select", "select a top-k influencer seed set")
    add_alpha(p_sel)
    add_k(p_sel)

    p_eval = add_command("evaluate", "compare reliability configurations")
    add_k(p_eval)
    p_eval.add_argument("--configs", default="fixed:0,fixed:0.2,estimated",
                        help="comma-separated sweep of estimated and fixed:<alpha> "
                             "(default: %(default)s)")

    add_alpha(add_command("dump-edges", "per-edge fusion diagnostics"))
    return parser, sub.choices


_KEY_ALIASES = {"lambda": "lam"}


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse the command line, then again over its ``--config`` file's values.

    The file's values become string defaults of the command's own parser, so
    the second parse converts and checks each one with the flag's own action,
    and a flag on the command line still wins.  The keys allowed are the
    command's own options: every option the command defines is an attribute
    of the first parse's namespace.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    command = commands[args.command]
    # The flags parsed once already, so every error from here on is the file's.
    command.source = f"--config {args.config}: "
    try:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        command.error(str(exc))
    if not isinstance(data, dict):
        command.error("top-level JSON object required")
    known = vars(args).keys() - {"command", "config"}
    for key, value in data.items():
        name = _KEY_ALIASES.get(key.replace("-", "_"), key.replace("-", "_"))
        if name not in known:
            command.error(f"unknown option {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            command.error(f"{key!r} must be a JSON string or number, not {json.dumps(value)}")
        command.set_defaults(**{name: str(value)})
    return parser.parse_args(argv)


def _cmd_generate(args: argparse.Namespace) -> int:
    g, activities = generate_synthetic(
        seed=args.seed,
        n_users=args.users,
        n_edges=args.n_edges,
        activity_intensity=args.intensity,
    )
    write_graph(g, activities, args.edges, args.mentions, args.retweets, args.activity)
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    cfg = ReliabilityConfig(alpha=args.alpha, lam=args.lam)
    # The activity records are not read; dropping them frees them before fusion.
    g = load_graph(args.edges, args.mentions, args.retweets, args.activity)[0]
    influence_field = InfluenceField.from_graph(fuse_all(g, cfg))
    selection = select_celf(influence_field, args.k)
    write_csv(
        args.out,
        ("rank", "user", "marginal_gain", "cumulative_sigma"),
        ((str(choice.rank), choice.user,
          f"{choice.gain:.6f}", f"{choice.cumulative_sigma:.6f}")
         for choice in selection.choices),
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
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
    return 0


def _cmd_dump_edges(args: argparse.Namespace) -> int:
    cfg = ReliabilityConfig(alpha=args.alpha, lam=args.lam)
    # The activity records are not read; dropping them frees them before fusion.
    g = load_graph(args.edges, args.mentions, args.retweets, args.activity)[0]
    fused = fuse_all(g, cfg)
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
    return 0


# Each command and the options it needs.  argparse's ``required`` would not
# count a value that a config file supplies, so main checks these itself.
_COMMANDS = {
    "generate": (_cmd_generate, ("edges", "mentions", "retweets", "activity")),
    "select": (_cmd_select, ("edges", "out")),
    "evaluate": (_cmd_evaluate, ("edges", "out")),
    "dump-edges": (_cmd_dump_edges, ("edges", "out")),
}


def main(argv: Sequence[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command, required = _COMMANDS[args.command]
    try:
        for name in required:
            if getattr(args, name) is None:
                raise ValueError(f"missing required option --{name}")
        return command(args)
    except _CONFIG_ERRORS as exc:
        print(f"evimax {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"evimax {args.command}: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
