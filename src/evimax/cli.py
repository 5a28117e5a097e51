"""Command-line pipeline: generate, select, evaluate, dump-edges.

Exit codes: 0 success, 1 input/configuration error (diagnostic on stderr
naming the offending file or flag), 2 internal error.  All real-valued output
is printed with 6 decimal places so repeated runs diff cleanly; given the
same inputs and flags, output files are byte-identical.

An optional JSON config file can supply any long-option value of the
command it is given to, and nothing else; explicit flags always win
(precedence: flag > file > built-in default).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from .evaluate import EvaluationError, compare_configs, default_configs
from .fusion import FusionError, ReliabilityConfig, fuse_all
from .graph import INDICATOR_NAMES, load_graph, write_graph
from .maximize import select_celf
from .spread import InfluenceField
from .synthetic import generate_synthetic

# Input errors (ParseError, UnknownUserError, InvalidKError, ...) are all
# ValueError subclasses.
_CONFIG_ERRORS = (FusionError, EvaluationError, ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="evimax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: _Parser, outputs: bool = False) -> None:
        role = "output" if outputs else "input"
        p.add_argument("--edges", help=f"edges CSV {role} (src,dst)")
        p.add_argument("--mentions", help=f"mentions CSV {role}")
        p.add_argument("--retweets", help=f"retweets CSV {role}")
        p.add_argument("--activity", help=f"per-user activity CSV {role}")

    def add_model(p: _Parser) -> None:
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="reliability shape parameter (default 5)")
        p.add_argument("--alpha", type=float, default=None,
                       help="fixed reliability in [0, 1]; omit for estimated mode. "
                            "At 1 no indicator is discounted, so an edge whose "
                            "indicators fully contradict (conflict K >= 1 - 1e-12) "
                            "stops the run with exit 1 naming that edge")

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", default=None, help="JSON file with option defaults")
        p.add_argument("--out", default=None, help="output file path")

    p_gen = sub.add_parser("generate", help="emit a synthetic four-file dataset")
    add_io(p_gen, outputs=True)
    p_gen.add_argument("--users", type=int, default=None, help="number of users")
    p_gen.add_argument("--n-edges", dest="n_edges", type=int, default=None,
                       help="number of follow edges")
    p_gen.add_argument("--intensity", type=float, default=None,
                       help="activity volume multiplier")
    p_gen.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_gen.add_argument("--config", default=None, help="JSON file with option defaults")

    p_sel = sub.add_parser("select", help="select a top-k influencer seed set")
    add_io(p_sel)
    add_model(p_sel)
    p_sel.add_argument("--k", type=int, default=None, help="seed count (default 50)")
    add_common(p_sel)

    p_eval = sub.add_parser("evaluate", help="compare reliability configurations")
    add_io(p_eval)
    p_eval.add_argument("--lambda", dest="lam", type=float, default=None)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--configs", default=None,
                        help="comma-separated sweep, e.g. fixed:0,fixed:0.2,estimated")
    add_common(p_eval)

    p_dump = sub.add_parser("dump-edges", help="per-edge fusion diagnostics")
    add_io(p_dump)
    add_model(p_dump)
    add_common(p_dump)
    return parser


_KEY_ALIASES = {"lambda": "lam"}


def _load_file_config(args: argparse.Namespace) -> dict:
    """Read option defaults from a JSON object, normalizing flag spellings.

    The keys allowed are the command's own options: every option the
    command's parser defines (default ``None``) is an attribute of ``args``.
    """
    path = args.config
    if path is None:
        return {}
    known = vars(args).keys() - {"command", "config"}
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"--config {path}: top-level JSON object required")
    normalized = {}
    for key, value in data.items():
        name = _KEY_ALIASES.get(key.replace("-", "_"), key.replace("-", "_"))
        if name not in known:
            raise ValueError(f"--config {path}: unknown option {key!r}")
        normalized[name] = value
    return normalized


def _opt(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    """Effective option value: flag beats config file beats default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _reliability_config(args: argparse.Namespace, file_cfg: dict) -> ReliabilityConfig:
    lam = float(_opt(args, file_cfg, "lam", 5.0))
    alpha = _opt(args, file_cfg, "alpha")
    if alpha is None:
        return ReliabilityConfig.estimated(lam=lam)
    return ReliabilityConfig.fixed(float(alpha), lam=lam)


def _require(args: argparse.Namespace, file_cfg: dict, key: str) -> str:
    value = _opt(args, file_cfg, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return str(value)


def _load_inputs(args: argparse.Namespace, file_cfg: dict):
    edges = _require(args, file_cfg, "edges")
    return load_graph(
        edges,
        _opt(args, file_cfg, "mentions"),
        _opt(args, file_cfg, "retweets"),
        _opt(args, file_cfg, "activity"),
    )


def _open_out(path: str):
    return open(path, "w", newline="", encoding="utf-8")


def _cmd_generate(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args)
    g, activities = generate_synthetic(
        seed=int(_opt(args, file_cfg, "seed", 42)),
        n_users=int(_opt(args, file_cfg, "users", 1000)),
        n_edges=int(_opt(args, file_cfg, "n_edges", 2000)),
        activity_intensity=float(_opt(args, file_cfg, "intensity", 1.0)),
    )
    write_graph(
        g,
        activities,
        _require(args, file_cfg, "edges"),
        _require(args, file_cfg, "mentions"),
        _require(args, file_cfg, "retweets"),
        _require(args, file_cfg, "activity"),
    )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args)
    g, _ = _load_inputs(args, file_cfg)
    cfg = _reliability_config(args, file_cfg)
    k = int(_opt(args, file_cfg, "k", 50))
    influence_field = InfluenceField.from_graph(g, fuse_all(g, cfg))
    selection = select_celf(influence_field, k)
    with _open_out(_require(args, file_cfg, "out")) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("rank", "user", "marginal_gain", "cumulative_sigma"))
        for choice in selection.choices:
            writer.writerow(
                (choice.rank, choice.user,
                 f"{choice.gain:.6f}", f"{choice.cumulative_sigma:.6f}")
            )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args)
    g, activities = _load_inputs(args, file_cfg)
    lam = float(_opt(args, file_cfg, "lam", 5.0))
    sweep = _opt(args, file_cfg, "configs")
    if sweep is None:
        configs = default_configs(lam)
    else:
        tokens = [t for t in str(sweep).split(",") if t.strip()]
        if not tokens:
            raise ValueError("--configs: empty sweep")
        configs = [ReliabilityConfig.parse(token, lam=lam) for token in tokens]
    k = int(_opt(args, file_cfg, "k", 50))
    report = compare_configs(g, activities, configs, k)
    with _open_out(_require(args, file_cfg, "out")) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("config", "rank", "user",
             "follows_acc", "mentions_acc", "retweets_acc", "tweets_acc")
        )
        for entry in report.entries:
            for i, choice in enumerate(entry.selection.choices):
                writer.writerow(
                    (entry.name, choice.rank, choice.user,
                     entry.curve.follows[i], entry.curve.mentions[i],
                     entry.curve.retweets[i], entry.curve.tweets[i])
                )
    return 0


def _cmd_dump_edges(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args)
    g, _ = _load_inputs(args, file_cfg)
    cfg = _reliability_config(args, file_cfg)
    n = len(INDICATOR_NAMES)
    with _open_out(_require(args, file_cfg, "out")) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("src", "dst")
            + tuple(f"w_{j + 1}" for j in range(n))
            + tuple(f"alpha_{j + 1}" for j in range(n))
            + ("inf",)
        )
        for edge, result in fuse_all(g, cfg).items():
            writer.writerow(
                edge
                + tuple(f"{w:.6f}" for w in result.weights)
                + tuple(f"{a:.6f}" for a in result.reliabilities)
                + (f"{result.inf:.6f}",)
            )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "evaluate": _cmd_evaluate,
    "dump-edges": _cmd_dump_edges,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"evimax {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"evimax {args.command}: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
