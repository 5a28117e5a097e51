"""The README's "Library use" block runs as written against the package."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import evimax
from evimax.graph import write_graph
from evimax.synthetic import generate_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


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
