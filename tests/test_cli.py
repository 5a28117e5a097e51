"""End-to-end command-line behavior: pipelines, determinism, exit codes."""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evimax
from evimax import cli, evaluate, synthetic
from evimax.cli import main
from evimax.graph import load_graph, write_csv, write_graph


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def paths(tmp_path):
    return {
        "edges": str(tmp_path / "edges.csv"),
        "mentions": str(tmp_path / "mentions.csv"),
        "retweets": str(tmp_path / "retweets.csv"),
        "activity": str(tmp_path / "activity.csv"),
        "out": str(tmp_path / "out.csv"),
        "dir": tmp_path,
    }


def generate(paths, users="120", edges="300", seed="5") -> None:
    code = run(
        "generate",
        "--users", users,
        "--n-edges", edges,
        "--seed", seed,
        "--edges", paths["edges"],
        "--mentions", paths["mentions"],
        "--retweets", paths["retweets"],
        "--activity", paths["activity"],
    )
    assert code == 0


def input_flags(paths) -> list[str]:
    return [
        "--edges", paths["edges"],
        "--mentions", paths["mentions"],
        "--retweets", paths["retweets"],
        "--activity", paths["activity"],
    ]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m evimax.cli`` in its own interpreter, stdout and stderr piped.

    PYTHONUNBUFFERED is dropped, so stdout is block-buffered on the pipe as
    by default, and only ``cli.console``'s flush delivers what is buffered.
    """
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    inherited = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "evimax.cli", *argv],
        env=dict(inherited, PYTHONPATH=path, **env), capture_output=True, text=True,
        timeout=120,
    )


def write_conflict_graph(paths) -> None:
    """a->b carries the most mentions and no retweets, c->d the reverse:
    undiscounted at alpha 1, their indicators fully contradict."""
    for key, text in (
        ("edges", "src,dst\na,b\nc,d\n"),
        ("mentions", "mentioner,mentioned,count\nb,a,5\n"),
        ("retweets", "retweeter,original_author,count\nd,c,3\n"),
        ("activity", "user,tweets,followers\n"),
    ):
        with open(paths[key], "w", encoding="utf-8") as handle:
            handle.write(text)


# The options each command requires.
REQUIRED = {
    "generate": ("edges", "mentions", "retweets", "activity"),
    "select": ("edges", "out"),
    "evaluate": ("edges", "out"),
    "dump-edges": ("edges", "out"),
}


class TestGenerate:
    def test_emits_loadable_dataset(self, paths):
        generate(paths)
        code = run("select", *input_flags(paths), "--k", "10", "--out", paths["out"])
        assert code == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert lines[0] == "rank,user,marginal_gain,cumulative_sigma"
        assert len(lines) == 11

    def test_same_seed_gives_identical_files(self, paths, tmp_path):
        generate(paths)
        first = {k: Path(paths[k]).read_bytes() for k in ("edges", "mentions", "retweets", "activity")}
        generate(paths)
        second = {k: Path(paths[k]).read_bytes() for k in ("edges", "mentions", "retweets", "activity")}
        assert first == second

    def test_zero_users_exits_1(self, paths, capsys):
        code = run(
            "generate", "--users", "0", "--n-edges", "0",
            "--edges", paths["edges"], "--mentions", paths["mentions"],
            "--retweets", paths["retweets"], "--activity", paths["activity"],
        )
        assert code == 1
        assert "n_users" in capsys.readouterr().err
        # Three users hold at most 3 * 2 = 6 distinct edges.
        code = run(
            "generate", "--users", "3", "--n-edges", "7",
            "--edges", paths["edges"], "--mentions", paths["mentions"],
            "--retweets", paths["retweets"], "--activity", paths["activity"],
        )
        assert code == 1
        assert "7 edges do not fit in a simple digraph on 3 users" in capsys.readouterr().err
        assert not any(paths["dir"].iterdir())

    def test_ci_graph_bytes_are_pinned(self, paths):
        # The benchmark's inputs are built by this generator, so a change to
        # its calls on the RNG shows here before it shows in every digest.
        generate(paths, users="200", edges="400", seed="7")
        digests = {
            kind: hashlib.sha256(Path(paths[kind]).read_bytes()).hexdigest()
            for kind in ("edges", "mentions", "retweets", "activity")
        }
        assert digests == {
            "edges": "023eabf086961449682fc38cf40ea0e1ac62292626d21f62b26275f975a5d343",
            "mentions": "2ceff50f33bd11fff4927fa2e5d356bc95d1f027de8ee953554d22751ec2f92e",
            "retweets": "b0cc90f87cb60169ef317af1a2ba03051f10ad03fd7766b15df39ffe9c826c66",
            "activity": "4b1499b32969ca4f237eca7dc4387ed05ffded62ce537413f4673005f1d3d05d",
        }

    # The bounds are lowered so that no run of this test can build a large
    # graph, whatever the generator does.
    @pytest.mark.parametrize("bound, users, edges, name", [
        ("MAX_USERS", "51", "0", "n_users"),
        ("MAX_EDGES", "20", "51", "n_edges"),
    ])
    def test_size_beyond_its_bound_exits_1_naming_it(
        self, paths, capsys, monkeypatch, bound, users, edges, name
    ):
        monkeypatch.setattr(synthetic, bound, 50)
        code = run(
            "generate", "--users", users, "--n-edges", edges,
            "--edges", paths["edges"], "--mentions", paths["mentions"],
            "--retweets", paths["retweets"], "--activity", paths["activity"],
        )
        assert code == 1
        assert f"{name} must lie in [" in capsys.readouterr().err
        assert not Path(paths["edges"]).exists()
        at_bound = {"n_users": ("50", "0"), "n_edges": ("20", "50")}[name]
        generate(paths, users=at_bound[0], edges=at_bound[1])

    def test_size_bounds_admit_the_largest_benchmark_workload(self):
        assert synthetic.MAX_USERS >= 200_000 and synthetic.MAX_EDGES >= 400_000

    def test_out_flag_rejected(self, paths, capsys):
        code = run(
            "generate", "--users", "10", "--n-edges", "12",
            "--edges", paths["edges"], "--mentions", paths["mentions"],
            "--retweets", paths["retweets"], "--activity", paths["activity"],
            "--out", paths["out"],
        )
        assert code == 1
        assert "--out" in capsys.readouterr().err


class TestSelect:
    def test_default_k_is_50(self, paths):
        generate(paths, users="120", edges="300")
        assert run("select", *input_flags(paths), "--out", paths["out"]) == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert len(lines) == 51  # header + 50 seed rows

    def test_default_k_capped_by_user_count(self, paths):
        generate(paths, users="30", edges="60")
        assert run("select", *input_flags(paths), "--out", paths["out"]) == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert len(lines) == 31  # header + one row per user

    def test_byte_identical_reruns(self, paths):
        generate(paths)
        run("select", *input_flags(paths), "--k", "20", "--out", paths["out"])
        first = Path(paths["out"]).read_bytes()
        run("select", *input_flags(paths), "--k", "20", "--out", paths["out"])
        assert Path(paths["out"]).read_bytes() == first

    def test_fixed_alpha_flag(self, paths):
        generate(paths)
        assert run(
            "select", *input_flags(paths), "--alpha", "0.2", "--k", "5",
            "--out", paths["out"],
        ) == 0

    def test_activity_only_user_is_a_candidate_seed(self, paths):
        # A user named only in the activity file is a user with no edges.  At
        # alpha 0 every gain is 1.0, and ties go to the smaller id, so "0z"
        # ranks before "a" and "b".
        Path(paths["edges"]).write_text("src,dst\na,b\n", encoding="utf-8")
        Path(paths["activity"]).write_text(
            "user,tweets,followers\na,1,1\n0z,5,0\n", encoding="utf-8"
        )
        assert run(
            "select", "--edges", paths["edges"], "--activity", paths["activity"],
            "--alpha", "0", "--k", "3", "--out", paths["out"],
        ) == 0
        assert Path(paths["out"]).read_text(encoding="utf-8") == (
            "rank,user,marginal_gain,cumulative_sigma\n"
            "1,0z,1.000000,1.000000\n"
            "2,a,1.000000,2.000000\n"
            "3,b,1.000000,3.000000\n"
        )

    def test_missing_edges_file_exits_1_naming_path(self, paths, capsys):
        code = run("select", "--edges", paths["edges"], "--out", paths["out"])
        assert code == 1
        assert "edges.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, required in REQUIRED.items() for option in required],
    )
    def test_missing_required_option_exits_1(self, paths, capsys, command, option):
        flags = [text for key in REQUIRED[command] if key != option
                 for text in (f"--{key}", paths[key])]
        code = run(command, *flags)
        assert code == 1
        assert (f"evimax {command}: error: the following arguments are required: --{option}"
                in capsys.readouterr().err)
        assert not any(paths["dir"].iterdir())  # neither --out nor a generated file

    def test_alpha_1_total_conflict_exits_1_naming_edge(self, paths, capsys):
        write_conflict_graph(paths)
        for command, flags, config in (
            ("select", ["--alpha", "1"], ""),
            ("dump-edges", ["--alpha", "1"], ""),
            # evaluate names the config whose fusion failed.
            ("evaluate", ["--configs", "fixed:0.2,fixed:1"], "config fixed:1: "),
        ):
            code = run(command, *input_flags(paths), *flags, "--out", paths["out"])
            assert code == 1
            err = capsys.readouterr().err
            assert f"{config}edge 'a' -> 'b': total conflict between sources (K=1.0)" in err
            # Fusion fails before the output file is opened.
            assert not (paths["dir"] / "out.csv").exists()

    @pytest.mark.parametrize("lam, problem", [
        ("30", None),
        ("50", "masses must sum to 1, got 0.99999999"),
        ("100", "total conflict between sources"),
    ])
    def test_large_lambda_reaches_the_alpha_1_exit(self, paths, capsys, lam, problem):
        # Estimated reliabilities round towards 1 as lambda grows, so an
        # edge's indicators stop being discounted, as at --alpha 1.
        generate(paths, users="30", edges="60", seed="3")
        code = run("select", *input_flags(paths), "--k", "3", "--lambda", lam,
                   "--out", paths["out"])
        err = capsys.readouterr().err
        if problem is None:
            assert code == 0 and err == ""
            assert (paths["dir"] / "out.csv").exists()
        else:
            assert code == 1
            assert f"edge 'u0026' -> 'u0002': {problem}" in err
            assert not (paths["dir"] / "out.csv").exists()

    def test_malformed_input_reports_file_and_line(self, paths, capsys):
        generate(paths)
        with open(paths["edges"], "a") as handle:
            handle.write("onlyonecolumn\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        assert "edges.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, row",
        [("edges", "{long},u0001"), ("mentions", "u0001,{long},1")],
        ids=["edges", "mentions"],
    )
    def test_field_beyond_the_csv_limit_exits_1_naming_file_and_line(
        self, paths, capsys, kind, row
    ):
        generate(paths)
        limit = csv.field_size_limit()
        with open(paths[kind], "a", encoding="utf-8") as handle:
            handle.write(row.format(long="x" * (limit + 1)) + "\n")
        lines = Path(paths[kind]).read_text(encoding="utf-8").count("\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        message = f"{paths[kind]}:{lines}: field larger than field limit ({limit})"
        assert capsys.readouterr().err == f"evimax select: error: {message}\n"
        assert not (paths["dir"] / "out.csv").exists()

    def test_non_utf8_file_exits_1_naming_it(self, paths, capsys):
        generate(paths)
        with open(paths["activity"], "ab") as handle:
            handle.write(b"\xff,1,1\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"evimax select: error: {paths['activity']}: not UTF-8 text (invalid start byte)\n"
        )

    def test_underscored_count_exits_1_naming_file_and_line(self, paths, capsys):
        generate(paths)
        with open(paths["mentions"], "a", encoding="utf-8") as handle:
            handle.write("u0001,u0002,1_000\n")
        lines = Path(paths["mentions"]).read_text(encoding="utf-8").count("\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        assert f"mentions.csv:{lines}: count must be an integer, got '1_000'" in (
            capsys.readouterr().err
        )

    def test_count_beyond_the_bound_exits_1_showing_a_short_cell(self, paths, capsys):
        generate(paths)
        with open(paths["mentions"], "a", encoding="utf-8") as handle:
            handle.write("u0001,u0002," + "9" * 5000 + "\n")
        lines = Path(paths["mentions"]).read_text(encoding="utf-8").count("\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"evimax select: error: {paths['mentions']}:{lines}: count exceeds the "
            f"largest float (1.79769e+308), got {'9' * 20!r}... (5000 characters)\n"
        )
        assert not (paths["dir"] / "out.csv").exists()


class TestEvaluate:
    def test_followers_beyond_the_bound_exit_1_before_any_output(self, paths, capsys):
        # Three 4,300-digit counts convert one by one, but their sum has more
        # digits than str() converts, so the bound stops them at loading.
        generate(paths, users="40", edges="90")
        huge = "9" * 4300
        Path(paths["activity"]).write_text(
            f"user,tweets,followers\nu0000,1,{huge}\nu0001,1,{huge}\nu0002,1,{huge}\n",
            encoding="utf-8",
        )
        code = run("evaluate", *input_flags(paths), "--configs", "fixed:0.2", "--k", "3",
                   "--out", paths["out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"evimax evaluate: error: {paths['activity']}:2: followers exceeds the "
            f"largest float (1.79769e+308), got {'9' * 20!r}... (4300 characters)\n"
        )
        assert not (paths["dir"] / "out.csv").exists()

    def test_default_sweep_has_three_blocks(self, paths):
        generate(paths, users="40", edges="90")
        assert run(
            "evaluate", *input_flags(paths), "--k", "6", "--out", paths["out"]
        ) == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert lines[0] == "config,rank,user,follows_acc,mentions_acc,retweets_acc,tweets_acc"
        assert len(lines) == 1 + 3 * 6  # header + |sweep| * k rows
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"fixed:0", "fixed:0.2", "estimated"}
        # Each config's block, in sweep order, numbers its seeds from 1.
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [name, str(rank)] for name in ("fixed:0", "fixed:0.2", "estimated")
            for rank in range(1, 7)
        ]
        default = Path(paths["out"]).read_bytes()
        assert run(
            "evaluate", *input_flags(paths), "--k", "6",
            "--configs", "fixed:0,fixed:0.2,estimated", "--out", paths["out"],
        ) == 0
        assert Path(paths["out"]).read_bytes() == default

    def test_custom_sweep_row_count(self, paths):
        generate(paths, users="40", edges="90")
        run(
            "evaluate", *input_flags(paths), "--k", "4",
            "--configs", "estimated,fixed:0.5", "--out", paths["out"],
        )
        assert len(Path(paths["out"]).read_text().splitlines()) == 1 + 2 * 4

    def test_empty_sweep_exits_1(self, paths, capsys):
        generate(paths)
        code = run(
            "evaluate", *input_flags(paths), "--configs", ",", "--out", paths["out"]
        )
        assert code == 1
        assert "configs" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["fixed:0,,fixed:0.2", "estimated, ", " ,estimated"])
    def test_empty_config_token_exits_1(self, paths, capsys, sweep):
        generate(paths)
        code = run(
            "evaluate", *input_flags(paths), "--configs", sweep, "--out", paths["out"]
        )
        assert code == 1
        assert f"of {sweep!r} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep, token, name",
        [
            ("fixed:0,fixed:0.2,fixed:0.20", "fixed:0.20", "fixed:0.2"),
            ("estimated,fixed:1, estimated", "estimated", "estimated"),
            # A zero alpha is stored as +0.0, so -0 repeats fixed:0.
            ("fixed:0,fixed:-0", "fixed:-0", "fixed:0"),
            # float() reads "0.2_5" as 0.25 (see TestConfigValueGrammar).
            ("fixed:0.2_5,fixed:0.25", "fixed:0.25", "fixed:0.25"),
        ],
    )
    def test_repeated_config_exits_1(self, paths, capsys, sweep, token, name):
        generate(paths)
        code = run(
            "evaluate", *input_flags(paths), "--configs", sweep, "--out", paths["out"]
        )
        assert code == 1
        assert f"{token!r} repeats config {name}" in capsys.readouterr().err

    def test_bad_config_token_exits_1(self, paths, capsys):
        generate(paths)
        code = run(
            "evaluate", *input_flags(paths), "--configs", "sometimes",
            "--out", paths["out"],
        )
        assert code == 1

    def test_internal_fault_exits_2(self, paths, monkeypatch, capsys):
        generate(paths, users="30", edges="60")

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(evaluate, "select_celf", boom)
        code = run("evaluate", *input_flags(paths), "--k", "3", "--out", paths["out"])
        assert code == 2
        assert "internal error: boom" in capsys.readouterr().err

    def test_byte_identical_reruns(self, paths):
        generate(paths, users="40", edges="90")
        run("evaluate", *input_flags(paths), "--k", "5", "--out", paths["out"])
        first = Path(paths["out"]).read_bytes()
        run("evaluate", *input_flags(paths), "--k", "5", "--out", paths["out"])
        assert Path(paths["out"]).read_bytes() == first


class TestConfigValueGrammar:
    """Config values are read by Python's ``float()``.

    Input-file counts are not: ``tests/test_graph.py``'s
    ``test_count_must_be_ascii_digits`` rejects "1_000" and "１２" there.
    """

    def test_underscored_alpha_names_its_block_by_value(self, paths):
        generate(paths)
        assert run("evaluate", *input_flags(paths), "--k", "2",
                   "--configs", "fixed:0.2_5,fixed:０.２", "--out", paths["out"]) == 0
        with open(paths["out"], newline="", encoding="utf-8") as handle:
            names = [row[0] for row in csv.reader(handle)][1:]
        assert names == ["fixed:0.25"] * 2 + ["fixed:0.2"] * 2

    def test_underscored_alpha_flag_runs_at_its_value(self, paths):
        generate(paths)
        outputs = []
        for alpha in ("0.2_5", "0.25", "0.2"):
            assert run("select", *input_flags(paths), "--alpha", alpha, "--k", "10",
                       "--out", paths["out"]) == 0
            outputs.append(Path(paths["out"]).read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]


class TestIntegerFlagGrammar:
    """Integer flags (``--k``, ``--users``, ``--n-edges``, ``--seed``) are read by ``int()``.

    So they take "1_0" and fullwidth "３", which input-file counts reject.
    """

    @pytest.mark.parametrize("k, seeds", [("1_0", 10), ("３", 3)])
    def test_select_k_runs_at_its_value(self, paths, k, seeds):
        generate(paths)
        assert run("select", *input_flags(paths), "--k", k, "--out", paths["out"]) == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert len(lines) == 1 + seeds

    def test_generate_users_runs_at_its_value(self, paths):
        generate(paths, users="1_00", edges="200")
        g = load_graph(paths["edges"], paths["mentions"], paths["retweets"],
                       paths["activity"])[0]
        assert len(g.users) == 100


class TestActivityReachesOnlyIds:
    """``select`` and ``dump-edges`` read the activity file only for its user ids."""

    def test_dump_edges_ignores_the_activity_file(self, paths):
        generate(paths, users="300", edges="700")
        outputs = []
        for flags in (input_flags(paths), input_flags(paths)[:-2]):
            assert run("dump-edges", *flags, "--out", paths["out"]) == 0
            outputs.append(Path(paths["out"]).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", [["--k", "20"], ["--alpha", "0.2", "--k", "280"]])
    def test_select_ignores_the_activity_counts(self, paths, flags):
        generate(paths, users="300", edges="700")
        assert run("select", *input_flags(paths), *flags, "--out", paths["out"]) == 0
        first = Path(paths["out"]).read_bytes()
        # Every tweets and followers count changes; the user ids stay.
        with open(paths["activity"], newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        rows = [(user, str(7 * int(t) + 1), str(3 * int(f) + 11)) for user, t, f in rows]
        with open(paths["activity"], "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        assert run("select", *input_flags(paths), *flags, "--out", paths["out"]) == 0
        assert Path(paths["out"]).read_bytes() == first


class TestDumpEdges:
    def test_per_edge_rows_with_six_decimals(self, paths):
        generate(paths, users="30", edges="60")
        assert run("dump-edges", *input_flags(paths), "--out", paths["out"]) == 0
        lines = Path(paths["out"]).read_text().splitlines()
        assert lines[0] == "src,dst,w_1,w_2,w_3,alpha_1,alpha_2,alpha_3,inf"
        # One row per edge: no generated mention or retweet row adds an edge.
        assert len(lines) == 61
        sample = lines[1].split(",")
        for cell in sample[2:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6

    def test_byte_identical_reruns(self, paths):
        generate(paths, users="40", edges="90")
        run("dump-edges", *input_flags(paths), "--out", paths["out"])
        first = Path(paths["out"]).read_bytes()
        run("dump-edges", *input_flags(paths), "--out", paths["out"])
        assert Path(paths["out"]).read_bytes() == first

    def test_largest_mention_count_sets_every_edges_weight(self, paths):
        # Min-max normalization divides by the column's span, so one appended
        # row above every edge's mention total rescales every edge's w_2.
        generate(paths, users="60", edges="150")
        assert run("dump-edges", *input_flags(paths), "--out", paths["out"]) == 0
        before = {(row[0], row[1]): row[3] for row in read_rows(paths["out"])[1:]}
        totals = Counter()
        for mentioner, mentioned, count in read_rows(paths["mentions"])[1:]:
            totals[mentioned, mentioner] += int(count)
        target = next(iter(before))
        large = 2 * max(totals.values()) + 1
        with open(paths["mentions"], "a", encoding="utf-8") as handle:
            handle.write(f"{target[1]},{target[0]},{large}\n")
        totals[target] += large
        assert run("dump-edges", *input_flags(paths), "--out", paths["out"]) == 0
        after = {(row[0], row[1]): row[3] for row in read_rows(paths["out"])[1:]}
        assert after.keys() == before.keys()
        low = min(totals[edge] for edge in after)
        high = totals[target]
        assert after.pop(target) == "1.000000"
        for edge, w_2 in after.items():
            assert w_2 == f"{(totals[edge] - low) / (high - low):.6f}"
        # The maximum more than doubled, so every edge with a mention moved.
        assert all(after[edge] != before[edge] for edge in after if totals[edge] > low)

    def test_negative_zero_alpha_writes_the_zero_alpha_file(self, paths):
        generate(paths, users="30", edges="60")
        assert run("dump-edges", *input_flags(paths), "--alpha", "0", "--out", paths["out"]) == 0
        zero = Path(paths["out"]).read_bytes()
        assert run("dump-edges", *input_flags(paths), "--alpha", "-0", "--out", paths["out"]) == 0
        assert Path(paths["out"]).read_bytes() == zero


class TestRowOrder:
    """The order of the count files' data rows changes no output.

    Each command runs in its own interpreter, under one hash seed on the
    generated files and another on the same files with the data rows of the
    mentions, retweets and activity files shuffled.  The edges file keeps its
    order: it orders the influence sums, so it can still decide near-ties.
    """

    def run_in_subprocess(self, argv, hash_seed):
        result = run_process(*argv, PYTHONHASHSEED=str(hash_seed))
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["select", "--k", "50"],
            ["select", "--alpha", "0.2", "--k", "200"],
            ["evaluate", "--k", "30"],
            ["dump-edges"],
        ],
        ids=" ".join,
    )
    def test_shuffled_count_rows_give_identical_outputs(self, paths, tmp_path, command):
        generate(paths, users="300", edges="900", seed="13")
        shuffled = dict(paths)
        rng = random.Random(13)
        for kind in ("mentions", "retweets", "activity"):
            header, *rows = Path(paths[kind]).read_text().splitlines(keepends=True)
            rng.shuffle(rows)
            shuffled[kind] = str(tmp_path / f"shuffled-{kind}.csv")
            Path(shuffled[kind]).write_text(header + "".join(rows))
        assert Path(shuffled["mentions"]).read_bytes() != Path(paths["mentions"]).read_bytes()
        shuffled["out"] = str(tmp_path / "shuffled-out.csv")

        self.run_in_subprocess([*command, *input_flags(paths), "--out", paths["out"]], 1)
        self.run_in_subprocess([*command, *input_flags(shuffled), "--out", shuffled["out"]], 2)
        assert Path(shuffled["out"]).read_bytes() == Path(paths["out"]).read_bytes()


# The commands the input-form contract is checked on, each with its --out
# file's id columns.  ``K`` is replaced by a drawn k, often above the user
# count; at --alpha 0 and in evaluate's default fixed:0 block every gain ties.
CONTRACT_COMMANDS = (
    (("select", "--k", "K"), (1,)),
    (("select", "--alpha", "0", "--k", "K"), (1,)),
    (("select", "--alpha", "0.2", "--k", "K"), (1,)),
    (("select", "--lambda", "1", "--k", "K"), (1,)),
    (("evaluate", "--k", "K"), (2,)),
    (("dump-edges",), (0, 1)),
    (("dump-edges", "--alpha", "0.2"), (0, 1)),
)
# evaluate --out's mentions_acc and retweets_acc columns.
RECEIVED_COLUMNS = (4, 5)


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def rewrite_inputs(source: dict, target: dict, scale: int = 1, prefix: str = "") -> None:
    """Copy the four input files, each mention and retweet count times ``scale``
    and each id prefixed with ``prefix``; rows keep their order."""
    for kind in ("edges", "mentions", "retweets", "activity"):
        header, *rows = read_rows(source[kind])
        if kind == "edges":
            rows = [(prefix + src, prefix + dst) for src, dst in rows]
        elif kind == "activity":
            rows = [(prefix + user, *counts) for user, *counts in rows]
        else:
            rows = [(prefix + a, prefix + b, str(int(n) * scale)) for a, b, n in rows]
        write_csv(target[kind], tuple(header), rows)


def contract_outputs(inputs: dict, k: int) -> list[tuple[bytes, list[list[str]]]]:
    """Each ``CONTRACT_COMMANDS`` entry's ``--out`` file on ``inputs``, as bytes and rows."""
    outputs = []
    for command, _ in CONTRACT_COMMANDS:
        argv = [str(k) if arg == "K" else arg for arg in command]
        assert run(*argv, *input_flags(inputs), "--out", inputs["out"]) == 0, argv
        outputs.append((Path(inputs["out"]).read_bytes(), read_rows(inputs["out"])))
    return outputs


class TestInputFormContract:
    """Outputs depend on the model, not on the input's form.

    Each example generates a small graph and runs every ``CONTRACT_COMMANDS``
    entry on its files and on a rewritten copy.  The files live in a
    directory made per example: pytest's ``tmp_path`` is one directory for
    all of a test's examples.
    """

    @staticmethod
    def generated(directory: Path, name: str, seed: int, users: int, edges: int) -> dict:
        inputs = {kind: str(directory / f"{name}-{kind}.csv")
                  for kind in ("edges", "mentions", "retweets", "activity", "out")}
        g, activities = synthetic.generate_synthetic(seed, users, edges)
        write_graph(g, activities, inputs["edges"], inputs["mentions"],
                    inputs["retweets"], inputs["activity"])
        return inputs

    @staticmethod
    def sizes(data) -> tuple[int, int, int, int]:
        """A seed, a user count, an edge count that fits and a k, deep k included."""
        users = data.draw(st.integers(1, 40), label="users")
        edges = data.draw(st.integers(0, min(users * (users - 1), 3 * users)), label="edges")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        k = data.draw(st.integers(1, users + 5), label="k")
        return seed, users, edges, k

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), scale=st.integers(2, 10**30))
    def test_scaled_counts_scale_only_the_received_columns(self, data, scale):
        seed, users, edges, k = self.sizes(data)
        with tempfile.TemporaryDirectory() as directory:
            base = self.generated(Path(directory), "base", seed, users, edges)
            scaled = dict(base, **{kind: str(Path(directory) / f"scaled-{kind}.csv")
                                   for kind in ("edges", "mentions", "retweets", "activity")})
            rewrite_inputs(base, scaled, scale=scale)
            expected = contract_outputs(base, k)
            got = contract_outputs(scaled, k)
        for (command, _), (want, want_rows), (have, have_rows) in zip(
            CONTRACT_COMMANDS, expected, got
        ):
            if command[0] != "evaluate":
                assert have == want, command
                continue
            header, *body = want_rows
            for row in body:
                for column in RECEIVED_COLUMNS:
                    row[column] = str(int(row[column]) * scale)
            assert have_rows == [header, *body], command

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), prefix=st.text(alphabet="09AZaz_-.", min_size=1, max_size=3))
    def test_order_preserving_relabel_prefixes_only_the_ids(self, data, prefix):
        seed, users, edges, k = self.sizes(data)
        with tempfile.TemporaryDirectory() as directory:
            base = self.generated(Path(directory), "base", seed, users, edges)
            relabeled = dict(base, **{kind: str(Path(directory) / f"relabeled-{kind}.csv")
                                      for kind in ("edges", "mentions", "retweets", "activity")})
            rewrite_inputs(base, relabeled, prefix=prefix)
            expected = contract_outputs(base, k)
            got = contract_outputs(relabeled, k)
        for (command, id_columns), (_, want_rows), (_, have_rows) in zip(
            CONTRACT_COMMANDS, expected, got
        ):
            header, *body = want_rows
            for row in body:
                for column in id_columns:
                    row[column] = prefix + row[column]
            assert have_rows == [header, *body], command


class TestFusedMassAboveOne:
    """At lambda 12, Dempster rounds the fused mass of a -> b to 1 + 2**-52.

    The mass is stored as 1.0, so every command accepts it as a weight.
    """

    @pytest.fixture
    def graph(self, paths):
        for key, text in (
            ("edges", "src,dst\na,b\na,c\nc,b\nd,e\n"),
            ("mentions", "mentioner,mentioned,count\nb,a,1\ne,d,2\n"),
            ("retweets", "retweeter,original_author,count\nb,a,1\n"),
            ("activity", "user,tweets,followers\n"),
        ):
            with open(paths[key], "w", encoding="utf-8") as handle:
                handle.write(text)
        return paths

    @pytest.mark.parametrize(
        "command, user_column",
        [
            (("select", "--k", "2"), 1),
            (("evaluate", "--k", "2", "--configs", "estimated"), 2),
        ],
        ids=("select", "evaluate"),
    )
    def test_command_accepts_the_fused_weight(self, graph, capsys, command, user_column):
        code = run(*command, *input_flags(graph), "--lambda", "12", "--out", graph["out"])
        assert code == 0, capsys.readouterr().err
        rows = Path(graph["out"]).read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[user_column] == "a"

    def test_dump_edges_prints_it_as_one(self, graph):
        assert run("dump-edges", *input_flags(graph), "--lambda", "12", "--out", graph["out"]) == 0
        rows = Path(graph["out"]).read_text().splitlines()
        assert rows[1].startswith("a,b,") and rows[1].endswith(",1.000000")


class TestOutputQuoting:
    """An --out file quotes ids as the input files do, so csv.reader reads it back."""

    @pytest.mark.parametrize(
        "command, id_columns, rows",
        [
            (("select", "--k", "3"), (1,), 3),
            (("evaluate", "--k", "3"), (2,), 3 * 3),
            (("dump-edges",), (0, 1), 2),
        ],
        ids=("select", "evaluate", "dump-edges"),
    )
    def test_id_with_bare_cr_reads_back_intact(self, paths, command, id_columns, rows):
        with open(paths["edges"], "w", newline="", encoding="utf-8") as handle:
            handle.write('src,dst\n"a\rb",c\nc,d\n')
        assert run(*command, "--edges", paths["edges"], "--out", paths["out"]) == 0
        with open(paths["out"], newline="", encoding="utf-8") as handle:
            header, *body = csv.reader(handle)
        assert len(body) == rows
        assert all(len(row) == len(header) for row in body)
        assert {row[column] for row in body for column in id_columns} == {"a\rb", "c", "d"}


class TestConfigBeforeInput:
    """A bad config option or seed count is reported before any input file is read."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("select", ["--alpha", "2"], "alpha must lie in [0, 1], got 2.0"),
            ("select", ["--lambda", "0"], "lambda must be finite and positive, got 0.0"),
            ("dump-edges", ["--alpha", "nan"], "alpha must lie in [0, 1], got nan"),
            ("evaluate", ["--configs", "bogus"], "bad config token 'bogus'"),
            # A fixed config holds no lambda, but a given one is still checked.
            ("select", ["--alpha", "0.2", "--lambda", "0"],
             "lambda must be finite and positive, got 0.0"),
            ("evaluate", ["--configs", "fixed:0.2", "--lambda", "-1"],
             "lambda must be finite and positive, got -1.0"),
            ("dump-edges", ["--alpha", "0", "--lambda", "inf"],
             "lambda must be finite and positive, got inf"),
            ("select", ["--k", "0"], "k must be >= 1, got 0"),
            ("evaluate", ["--k", "-1"], "k must be >= 1, got -1"),
        ],
    )
    def test_missing_edges_file_is_not_read(self, paths, capsys, command, flags, message):
        code = run(command, "--edges", paths["edges"], *flags, "--out", paths["out"])
        assert code == 1
        error = capsys.readouterr().err
        assert f"evimax {command}: error: {message}" in error
        assert "edges.csv" not in error
        assert not Path(paths["out"]).exists()


class TestUsage:
    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_unknown_command_exits_1(self, capsys):
        assert run("frobnicate") == 1

    def test_no_command_exits_1(self):
        assert run() == 1


class TestProcessExit:
    """``python -m evimax.cli`` ends through ``cli.console``: stdout and stderr
    are flushed, then ``os._exit`` skips the interpreter's teardown."""

    def test_help_reaches_a_pipe(self):
        result = run_process("--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: evimax")
        assert "dump-edges" in result.stdout and result.stderr == ""

    def test_usage_error_reaches_stderr(self):
        result = run_process("select", "--edges", "e.csv")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("usage: evimax select")
        assert "the following arguments are required: --out" in result.stderr

    def test_total_conflict_exits_1_with_its_diagnostic(self, paths):
        write_conflict_graph(paths)
        result = run_process("select", *input_flags(paths), "--alpha", "1",
                             "--out", paths["out"])
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "evimax select: error: edge 'a' -> 'b': total conflict between sources (K=1.0)\n"
        )
        assert not Path(paths["out"]).exists()

    def test_select_writes_every_row(self, paths, tmp_path):
        generate(paths, users="120", edges="300")
        result = run_process("select", *input_flags(paths), "--k", "120", "--out", paths["out"])
        assert result.returncode == 0 and result.stdout == result.stderr == ""
        in_process = str(tmp_path / "in-process.csv")
        assert run("select", *input_flags(paths), "--k", "120", "--out", in_process) == 0
        assert len(read_rows(paths["out"])) == 121
        assert Path(paths["out"]).read_bytes() == Path(in_process).read_bytes()


class TestErrorClasses:
    def test_every_error_class_is_a_value_error(self):
        # main reports a ValueError as an input error (exit 1) and any other
        # exception as an internal one (exit 2).
        defined = {
            name: obj
            for info in pkgutil.walk_packages(evimax.__path__, "evimax.")
            for name, obj in vars(importlib.import_module(info.name)).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == info.name
        }
        # The package defines only the errors it exports; every other failure
        # is a plain ValueError, told apart by its message.
        assert sorted(defined) == [
            "EvaluationError", "FusionError", "InvalidKError", "ParseError", "UnknownUserError",
        ]
        assert all(name in evimax.__all__ and getattr(evimax, name) is cls
                   for name, cls in defined.items())
        assert [name for name, cls in defined.items() if not issubclass(cls, ValueError)] == []


class TestConfigFileKeys:
    """A command accepts only its own options, each spelled in full: the keys
    a run is configured by.

    Run settings come from flags alone (there is no config file), so an
    option of another command, or a prefix of one of its own, is an
    unrecognized argument.
    """

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("generate", "out", "x.csv"),
            ("generate", "k", 5),
            ("generate", "configs", "estimated"),
            ("generate", "intensity", 2.0),
            ("select", "configs", "estimated"),
            # Every command runs in one process; none takes a thread count.
            ("select", "threads", 0),
            ("evaluate", "alpha", 0.2),
            ("dump-edges", "k", 5),
            ("dump-edges", "configs", "estimated"),
            # No command reads a config file.
            ("select", "config", "run.json"),
            # A prefix of --configs is not --configs.
            ("evaluate", "config", "fixed:0.2"),
        ],
    )
    def test_key_of_another_command_exits_1_naming_it(
        self, paths, capsys, command, key, value
    ):
        generate(paths, users="30", edges="60")
        before = {path.name: path.read_bytes() for path in paths["dir"].iterdir()}
        capsys.readouterr()
        extra = ["--users", "10", "--n-edges", "12"] if command == "generate" else [
            "--out", paths["out"]
        ]
        code = run(command, *input_flags(paths), *extra, f"--{key}", str(value))
        assert code == 1
        # The command's own parser reports it, with the command's usage.
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: evimax {command} [-h]")
        assert err[-1] == f"evimax {command}: error: unrecognized arguments: --{key} {value}"
        # Rejected while parsing: no file is written or rewritten.
        assert {path.name: path.read_bytes() for path in paths["dir"].iterdir()} == before

    def test_each_command_reads_its_own_keys(self, paths):
        own = ["--users", "30", "--n-edges", "60", "--seed", "3"]
        assert run("generate", *input_flags(paths), *own) == 0
        first = Path(paths["edges"]).read_bytes()
        assert run("generate", *input_flags(paths), *own) == 0
        assert Path(paths["edges"]).read_bytes() == first

        assert run(
            "evaluate", *input_flags(paths), "--out", paths["out"], "--k", "3",
            "--lambda", "4.0", "--configs", "fixed:0.2,estimated",
        ) == 0
        assert len(Path(paths["out"]).read_text().splitlines()) == 1 + 2 * 3

        assert run(
            "dump-edges", *input_flags(paths), "--out", paths["out"], "--alpha", "0.2"
        ) == 0
        rows = Path(paths["out"]).read_text().splitlines()[1:]
        assert rows and all(row.split(",")[5] == "0.200000" for row in rows)


# Every option of every command.
OPTIONS = {
    "generate": {"edges", "mentions", "retweets", "activity",
                 "users", "n-edges", "seed"},
    "select": {"edges", "mentions", "retweets", "activity", "out", "lambda", "alpha", "k"},
    "evaluate": {"edges", "mentions", "retweets", "activity", "out", "lambda", "k", "configs"},
    "dump-edges": {"edges", "mentions", "retweets", "activity", "out", "lambda", "alpha"},
}
DEFAULTS = {
    "generate": {"users": "1000", "n-edges": "2000", "seed": "42"},
    "select": {"lambda": "5.0", "k": "50"},
    "evaluate": {"lambda": "5.0", "k": "50", "configs": "fixed:0,fixed:0.2,estimated"},
    "dump-edges": {"lambda": "5.0"},
}


class TestOneOptionPath:
    """Each option is read by argparse alone: its value, its check, its help."""

    @pytest.mark.parametrize(
        "command, config",
        [
            ("select", {"k": "2.7"}),
            ("select", {"k": "2.0"}),
            ("select", {"k": "x"}),
            ("select", {"k": "True"}),
            ("select", {"k": "None"}),
            ("select", {"k": "[3]"}),
            ("select", {"alpha": "True"}),
            ("select", {"lambda": "None"}),
            ("evaluate", {"configs": "{'fixed': 0.2}"}),
            ("generate", {"seed": "2.5"}),
        ],
    )
    def test_bad_value_exits_1_naming_key_and_file(self, paths, capsys, command, config):
        # The value is given as the flag's text; the error names the flag
        # (or, for --configs, quotes the bad token) and no output file is
        # written.
        generate(paths, users="30", edges="60")
        capsys.readouterr()
        (key, value), = config.items()
        extra = [] if command == "generate" else ["--out", paths["out"]]
        code = run(command, *input_flags(paths), *extra, f"--{key}", value)
        assert code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"evimax {command}: error: ")
        assert f"argument --{key}: invalid" in error or repr(value) in error
        if extra:
            assert not (paths["dir"] / "out.csv").exists()

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_lists_every_option_and_shows_defaults(self, capsys, command):
        assert run(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert set(re.findall(r"--([a-z][a-z-]*)", text)) == {*OPTIONS[command], "help"}
        for option, default in DEFAULTS[command].items():
            assert re.search(rf"--{option} \S+ (?:(?!--).)*\(default: {re.escape(default)}\)", text)


class TestOptionSpelling:
    """An option is read only when spelled in full.

    Its name minus the last character, given with every required option,
    exits 1 as an unrecognized argument before any file is written, so an
    option added later cannot change what an abbreviation means.
    """

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, options in OPTIONS.items()
         for option in sorted(options) if len(option) > 1],
    )
    def test_prefix_exits_1_unrecognized(self, paths, capsys, command, option):
        generate(paths, users="30", edges="60")
        values = {key: paths[key] for key in ("edges", "mentions", "retweets", "activity", "out")}
        if command == "generate":
            # Files generate would create, so that a run shows in the directory.
            values.update((key, str(paths["dir"] / f"new-{key}.csv")) for key in REQUIRED[command])
        values.update({"lambda": "5.0", "alpha": "0.2", "configs": "estimated",
                       "users": "10", "n-edges": "12", "seed": "3"})
        before = {path.name: path.read_bytes() for path in paths["dir"].iterdir()}
        capsys.readouterr()
        prefix = f"--{option[:-1]}"
        required = [arg for key in REQUIRED[command] for arg in (f"--{key}", values[key])]
        code = run(command, *required, prefix, values[option])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: evimax {command} [-h]")
        assert err[-1] == (
            f"evimax {command}: error: unrecognized arguments: {prefix} {values[option]}"
        )
        assert {path.name: path.read_bytes() for path in paths["dir"].iterdir()} == before


class TestCollectorPause:
    """main pauses the cyclic collector and leaves it as it found it."""

    def exit_paths(self, paths, monkeypatch):
        """Each exit path of main, as (argv, expected exit code)."""
        generate(paths, users="30", edges="60")
        select = ["select", *input_flags(paths), "--k", "3", "--out", paths["out"]]
        yield select, 0
        yield ["select", "--edges", str(paths["dir"] / "missing.csv"),
               "--out", paths["out"]], 1
        yield [*select, "--frobnicate"], 1

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "select_celf", boom)
        yield select, 2

    def test_enabled_collector_is_re_enabled_on_every_exit(self, paths, monkeypatch):
        assert gc.isenabled()
        for argv, code in self.exit_paths(paths, monkeypatch):
            assert main(argv) == code
            assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, paths, monkeypatch):
        gc.disable()
        try:
            for argv, code in self.exit_paths(paths, monkeypatch):
                assert main(argv) == code
                assert not gc.isenabled()
        finally:
            gc.enable()


class TestNoReferenceCycles:
    """The pipeline leaves nothing for the cyclic collector to free.

    This is what makes pausing the collector safe: every object a command
    builds is freed by reference counting alone.  The argument parsers do
    build cycles, so each command is compared with parsing its arguments.
    """

    @pytest.mark.parametrize(
        "command, extra, code",
        [
            ("select", [], 0),
            ("evaluate", ["--k", "10"], 0),
            ("dump-edges", [], 0),
            ("select", ["--alpha", "1"], 1),  # total conflict on this graph
        ],
    )
    def test_command_frees_as_much_as_parsing_alone(self, paths, capsys, command, extra, code):
        generate(paths)
        argv = [command, *input_flags(paths), *extra, "--out", paths["out"]]
        gc.collect()
        gc.disable()
        try:
            cli._build_parser().parse_known_args(argv)
            parsing = gc.collect()
            assert main(argv) == code
            assert gc.collect() == parsing
        finally:
            gc.enable()
        if code:
            assert "total conflict" in capsys.readouterr().err
