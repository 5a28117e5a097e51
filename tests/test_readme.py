"""The README's "CLI quickstart" and "Library use" blocks run as written."""

from __future__ import annotations

import ast
import csv
import re
import shlex
from pathlib import Path

import evimax
from evimax import cli
from evimax.graph import write_graph
from evimax.synthetic import generate_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the README's ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def library_use_block() -> str:
    return first_block("## Library use", "python")


def cli_quickstart_commands() -> list[list[str]]:
    """Each command of the quickstart block, continuation lines joined."""
    lines = first_block("## CLI quickstart", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_cli_quickstart_runs_and_its_outputs_read_back(tmp_path, monkeypatch):
    commands = cli_quickstart_commands()
    assert [argv[:2] for argv in commands] == [
        ["evimax", command] for command in ("generate", "select", "evaluate", "dump-edges")
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    with open("edges.csv", newline="", encoding="utf-8") as handle:
        edges = sum(1 for _ in csv.reader(handle)) - 1
    # 50 seeds, 50 per config of a three-config sweep, and one row per edge.
    expected = {"select": 50, "evaluate": 150, "dump-edges": edges}
    for argv in commands[1:]:
        with open(argv[argv.index("--out") + 1], newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert len(rows) == expected[argv[1]]
        assert all(len(row) == len(header) for row in rows)


def test_library_use_block_imports_only_exported_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "evimax"
        for alias in node.names
    }
    assert imported
    assert imported <= set(evimax.__all__)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    g, activities = generate_synthetic(seed=3, n_users=80, n_edges=200)
    write_graph(g, activities, tmp_path / "edges.csv", tmp_path / "mentions.csv",
                tmp_path / "retweets.csv", tmp_path / "activity.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # Five seed rows, the spread of the seed set, and one line per config.
    assert len(lines) == 5 + 1 + 2
    assert lines[-2].startswith("fixed:0.2 [") and lines[-1].startswith("estimated [")
