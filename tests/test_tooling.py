"""Repository tooling: the traced benchmark runner and the stdlib-only rule."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evimax.graph import raw_indicators, write_graph
from evimax.synthetic import generate_synthetic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.mark.parametrize(
    "command, spans",
    [
        pytest.param(["select", "--k", "5"],
                     {"fusion.fuse_all", "maximize.select_celf"}, id="select"),
        pytest.param(["evaluate", "--k", "5", "--configs", "fixed:0.2,estimated"],
                     {"evaluate.compare_configs", "spread.InfluenceField.from_graph",
                      "maximize.select_celf"}, id="evaluate"),
        pytest.param(["dump-edges", "--alpha", "0.2"], {"fusion.fuse_all"}, id="dump-edges"),
    ],
)
def test_traced_runner_records_layer_spans(tmp_path, command, spans):
    # perfbench/traced.py looks up every wrapped name in its module, so a
    # renamed or deleted function stops the traced run.
    g, activities = generate_synthetic(seed=3, n_users=30, n_edges=60)
    csvs = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
    write_graph(g, activities, *csvs)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    ))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), *command,
         "--edges", csvs[0], "--mentions", csvs[1], "--retweets", csvs[2],
         "--activity", csvs[3], "--out", str(tmp_path / "out.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    names = {span["name"] for span in json.loads(trace.read_text())["spans"]}
    assert {"cli.main", "graph.load_graph", "graph.raw_indicators"} | spans <= names


def test_traced_select_counts_the_fusion_it_runs(tmp_path):
    # Fusion runs fuse_edge and the belief operators once per distinct raw
    # indicator vector, so the traced counts show the fusion work done.
    g, activities = generate_synthetic(seed=3, n_users=30, n_edges=60)
    csvs = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
    write_graph(g, activities, *csvs)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    ))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), "select",
         "--edges", csvs[0], "--mentions", csvs[1], "--retweets", csvs[2],
         "--activity", csvs[3], "--k", "5", "--out", str(tmp_path / "seeds.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    calls = json.loads(trace.read_text())["calls"]
    distinct, _ = raw_indicators(g)
    assert calls["fusion.fuse_edge"]["calls"] == len(distinct)
    assert calls["belief.combine_dempster"]["calls"] > 0


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted((SRC / "evimax").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "evimax" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {module}")
    assert foreign == []
