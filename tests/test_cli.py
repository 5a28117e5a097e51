"""End-to-end command-line behavior: pipelines, determinism, exit codes."""

from __future__ import annotations

import csv
import gc
import json
import re
from pathlib import Path

import pytest

from evimax import cli, evaluate, synthetic
from evimax.cli import main


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

    @pytest.mark.parametrize("intensity", ["1e300", "1e307"])
    def test_huge_intensity_exits_1_naming_it(self, paths, capsys, intensity):
        # No edges, so only the tweet counts grow with the intensity.
        code = run(
            "generate", "--users", "50", "--n-edges", "0", "--intensity", intensity,
            "--edges", paths["edges"], "--mentions", paths["mentions"],
            "--retweets", paths["retweets"], "--activity", paths["activity"],
        )
        assert code == 1
        assert "activity_intensity" in capsys.readouterr().err

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

    def test_missing_edges_flag_exits_1(self, paths, capsys):
        code = run("select", "--out", paths["out"])
        assert code == 1
        assert "--edges" in capsys.readouterr().err

    def test_bad_k_exits_1(self, paths, capsys):
        generate(paths)
        code = run("select", *input_flags(paths), "--k", "0", "--out", paths["out"])
        assert code == 1
        assert "k" in capsys.readouterr().err

    def test_bad_alpha_exits_1(self, paths, capsys):
        generate(paths)
        code = run(
            "select", *input_flags(paths), "--alpha", "1.5", "--out", paths["out"]
        )
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_alpha_1_total_conflict_exits_1_naming_edge(self, paths, capsys):
        # a->b carries the most mentions and no retweets, c->d the reverse:
        # undiscounted at alpha 1, their indicators fully contradict.
        for key, text in (
            ("edges", "src,dst\na,b\nc,d\n"),
            ("mentions", "mentioner,mentioned,count\nb,a,5\n"),
            ("retweets", "retweeter,original_author,count\nd,c,3\n"),
            ("activity", "user,tweets,followers\n"),
        ):
            with open(paths[key], "w", encoding="utf-8") as handle:
                handle.write(text)
        for command in ("select", "dump-edges"):
            code = run(command, *input_flags(paths), "--alpha", "1", "--out", paths["out"])
            assert code == 1
            err = capsys.readouterr().err
            assert "edge 'a' -> 'b': total conflict between sources (K=1.0)" in err
            # Fusion fails before the output file is opened.
            assert not (paths["dir"] / "out.csv").exists()

    def test_bad_threads_exits_1(self, paths, capsys):
        generate(paths)
        code = run(
            "select", *input_flags(paths), "--threads", "0", "--out", paths["out"]
        )
        assert code == 1
        assert "threads" in capsys.readouterr().err

    def test_malformed_input_reports_file_and_line(self, paths, capsys):
        generate(paths)
        with open(paths["edges"], "a") as handle:
            handle.write("onlyonecolumn\n")
        code = run("select", *input_flags(paths), "--out", paths["out"])
        assert code == 1
        assert "edges.csv" in capsys.readouterr().err

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

    def test_config_file_provides_defaults_flags_override(self, paths):
        generate(paths)
        cfg = paths["dir"] / "run.json"
        cfg.write_text(json.dumps({"k": 2, "alpha": 0.2, "lambda": 4.0}))
        run("select", *input_flags(paths), "--config", str(cfg), "--out", paths["out"])
        assert len(Path(paths["out"]).read_text().splitlines()) == 3  # file k=2
        run(
            "select", *input_flags(paths), "--config", str(cfg), "--k", "4",
            "--out", paths["out"],
        )
        assert len(Path(paths["out"]).read_text().splitlines()) == 5  # flag wins

    def test_config_file_rejects_unknown_keys(self, paths, capsys):
        generate(paths)
        cfg = paths["dir"] / "run.json"
        for key in ("kay", "threads"):
            cfg.write_text(json.dumps({key: 2}))
            code = run(
                "select", *input_flags(paths), "--config", str(cfg), "--out", paths["out"]
            )
            assert code == 1
            assert key in capsys.readouterr().err


class TestEvaluate:
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
        assert len(lines) >= 61  # every edge appears (activity may add edges)
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

    def test_negative_zero_alpha_writes_the_zero_alpha_file(self, paths):
        generate(paths, users="30", edges="60")
        assert run("dump-edges", *input_flags(paths), "--alpha", "0", "--out", paths["out"]) == 0
        zero = Path(paths["out"]).read_bytes()
        assert run("dump-edges", *input_flags(paths), "--alpha", "-0", "--out", paths["out"]) == 0
        assert Path(paths["out"]).read_bytes() == zero


class TestFusedMassAboveOne:
    """At lambda 12, Dempster rounds the fused mass of a -> b to 1 + 2**-52."""

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
    """A bad config option is reported before any input file is read."""

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
        ],
    )
    def test_missing_edges_file_is_not_read(self, paths, capsys, command, flags, message):
        code = run(command, "--edges", paths["edges"], *flags, "--out", paths["out"])
        assert code == 1
        error = capsys.readouterr().err
        assert f"evimax {command}: error: {message}" in error
        assert "edges.csv" not in error


class TestUsage:
    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_unknown_command_exits_1(self, capsys):
        assert run("frobnicate") == 1

    def test_no_command_exits_1(self):
        assert run() == 1


class TestConfigFileKeys:
    """A config file may set only the options of the command it is given to."""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("generate", "out", "x.csv"),
            ("generate", "k", 5),
            ("generate", "configs", "estimated"),
            ("select", "configs", "estimated"),
            ("evaluate", "alpha", 0.2),
            ("dump-edges", "k", 5),
            ("dump-edges", "configs", "estimated"),
        ],
    )
    def test_key_of_another_command_exits_1_naming_it(
        self, paths, capsys, command, key, value
    ):
        generate(paths, users="30", edges="60")
        cfg = paths["dir"] / "run.json"
        cfg.write_text(json.dumps({key: value}))
        extra = ["--users", "10", "--n-edges", "12"] if command == "generate" else [
            "--out", paths["out"]
        ]
        code = run(command, *input_flags(paths), *extra, "--config", str(cfg))
        assert code == 1
        assert repr(key) in capsys.readouterr().err

    def test_each_command_reads_its_own_keys(self, paths):
        cfg = paths["dir"] / "run.json"
        files = {key: paths[key] for key in ("edges", "mentions", "retweets", "activity")}
        cfg.write_text(json.dumps(
            {**files, "users": 30, "n-edges": 60, "intensity": 2.0, "seed": 3}
        ))
        assert run("generate", "--config", str(cfg)) == 0
        assert run(
            "generate", *input_flags(paths), "--users", "30", "--n-edges", "60",
            "--intensity", "2.0", "--seed", "3",
        ) == 0
        flagged = Path(paths["edges"]).read_bytes()
        assert run("generate", "--config", str(cfg)) == 0
        assert Path(paths["edges"]).read_bytes() == flagged

        cfg.write_text(json.dumps(
            {**files, "out": paths["out"], "k": 3, "lambda": 4.0,
             "configs": "fixed:0.2,estimated"}
        ))
        assert run("evaluate", "--config", str(cfg)) == 0
        assert len(Path(paths["out"]).read_text().splitlines()) == 1 + 2 * 3

        cfg.write_text(json.dumps({**files, "out": paths["out"], "alpha": 0.2}))
        assert run("dump-edges", "--config", str(cfg)) == 0
        rows = Path(paths["out"]).read_text().splitlines()[1:]
        assert rows and all(row.split(",")[5] == "0.200000" for row in rows)


# Every option of every command but --config, with a value unlike its
# default; None marks a path, filled in from the ``paths`` fixture.
OPTIONS = {
    "generate": {"edges": None, "mentions": None, "retweets": None, "activity": None,
                 "users": 40, "n-edges": 90, "intensity": 1.5, "seed": 7},
    "select": {"edges": None, "mentions": None, "retweets": None, "activity": None,
               "out": None, "lambda": 2.5, "alpha": 0.30000000000000004, "k": 7},
    "evaluate": {"edges": None, "mentions": None, "retweets": None, "activity": None,
                 "out": None, "lambda": 0.7, "k": 4, "configs": "fixed:0.5,estimated"},
    "dump-edges": {"edges": None, "mentions": None, "retweets": None, "activity": None,
                   "out": None, "lambda": 2.5, "alpha": 0.30000000000000004},
}
DEFAULTS = {
    "generate": {"users": "1000", "n-edges": "2000", "intensity": "1.0", "seed": "42"},
    "select": {"lambda": "5.0", "k": "50"},
    "evaluate": {"lambda": "5.0", "k": "50", "configs": "fixed:0,fixed:0.2,estimated"},
    "dump-edges": {"lambda": "5.0"},
}


class TestOneOptionPath:
    """A config-file value goes through the same argparse action as the flag."""

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, options in OPTIONS.items() for option in options],
    )
    def test_file_value_gives_the_flag_output(self, paths, command, option):
        generate(paths, users="40", edges="90")
        options = {key: paths[key] if value is None else value
                   for key, value in OPTIONS[command].items()}
        written = ["out"] if "out" in options else ["edges", "mentions", "retweets", "activity"]

        def run_with(opts, *extra) -> dict:
            flags = [text for key, value in opts.items() for text in (f"--{key}", str(value))]
            assert run(command, *flags, *extra) == 0
            return {key: Path(paths[key]).read_bytes() for key in written}

        expected = run_with(options)
        value = options.pop(option)
        cfg = paths["dir"] / "run.json"
        for file_value in {value, str(value)}:  # a JSON number and its text
            cfg.write_text(json.dumps({option: file_value}))
            assert run_with(options, "--config", str(cfg)) == expected

    @pytest.mark.parametrize(
        "command, config",
        [
            ("select", {"k": 2.7}),
            ("select", {"k": 2.0}),
            ("select", {"k": "x"}),
            ("select", {"k": True}),
            ("select", {"k": None}),
            ("select", {"k": [3]}),
            ("select", {"alpha": True}),
            ("select", {"lambda": None}),
            ("evaluate", {"configs": {"fixed": 0.2}}),
            ("generate", {"seed": 2.5}),
        ],
    )
    def test_bad_value_exits_1_naming_key_and_file(self, paths, capsys, command, config):
        generate(paths, users="30", edges="60")
        capsys.readouterr()
        cfg = paths["dir"] / "run.json"
        cfg.write_text(json.dumps(config))
        extra = [] if command == "generate" else ["--out", paths["out"]]
        code = run(command, *input_flags(paths), *extra, "--config", str(cfg))
        assert code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        prefix = f"evimax {command}: error: --config {cfg}: "
        assert error.startswith(prefix)
        (key, value), = config.items()
        assert f"--{key}" in error or repr(key) in error
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            # Parsed like the flag's text, so it fails with the flag's message.
            assert run(command, *input_flags(paths), *extra, f"--{key}", str(value)) == 1
            flag_error = capsys.readouterr().err.splitlines()[-1]
            assert flag_error == f"evimax {command}: error: " + error[len(prefix):]
        if extra:
            assert not (paths["dir"] / "out.csv").exists()

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_lists_every_option_and_shows_defaults(self, capsys, command):
        assert run(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert set(re.findall(r"--([a-z][a-z-]*)", text)) == {*OPTIONS[command], "help", "config"}
        for option, default in DEFAULTS[command].items():
            assert re.search(rf"--{option} \S+ (?:(?!--).)*\(default: {re.escape(default)}\)", text)


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
            cli._parse_args(argv)
            parsing = gc.collect()
            assert main(argv) == code
            assert gc.collect() == parsing
        finally:
            gc.enable()
        if code:
            assert "total conflict" in capsys.readouterr().err
