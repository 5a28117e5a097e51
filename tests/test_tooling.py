"""Repository tooling: the traced benchmark runner, the suite's warning filters, the
stdlib-only rule, CPU-count independence, unused helpers, public methods only the
tests read, public callables no command runs, unused imports, and the loader's count
fast path."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from evimax import cli, graph
from evimax.graph import load_graph, raw_indicators, write_graph
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


PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_suite(tmp_path):
    # Under pyproject.toml's warning filters, a failing @given test is
    # reported and the tests after it still run.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout, output


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


def test_package_reads_no_cpu_count():
    # Every command runs in one process whatever CPUs it may use, so its
    # output cannot depend on the CPU affinity mask.
    names = {"sched_getaffinity", "cpu_count", "fork"}
    found = []
    for path in sorted((SRC / "evimax").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def _code_names(tree: ast.AST) -> set[str]:
    """Every name and attribute that ``tree`` refers to."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_helper_is_used_in_the_package():
    # A module-level ``_name`` that nothing in the package refers to is left
    # over from a deletion: remove it with its last caller.
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted((SRC / "evimax").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = path.name
        used |= _code_names(tree)
    assert defined
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used) == []


def _annotation_names(node: ast.AST) -> set[str]:
    """The names in ``node``'s own annotations, quoted ones parsed as code."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        annotation = node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    else:
        return set()
    names: set[str] = set()
    for part in ast.walk(annotation) if annotation else ():
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _code_names(ast.parse(part.value, mode="eval"))
    return names


def test_every_import_in_the_package_is_used():
    # An imported name that its module never refers to is left over from a
    # deletion, like an unused private helper.  Annotations count, quoted
    # ones too, and so does a name listed in ``__all__`` (a re-export).
    checked = 0
    unused = []
    for path in sorted((SRC / "evimax").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound: dict[str, int] = {}
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
            used |= _annotation_names(node)
        checked += len(bound)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in bound.items() if name not in used]
    assert checked
    assert unused == []


def test_every_public_method_has_a_reader_outside_the_tests():
    # A public method or property that only the tests call belongs in
    # tests/oracles.py or inline in a test.  Only code counts as a reader:
    # a name or attribute in the package or in perfbench/*.py, or a
    # perfbench/*.py string that is a dotted identifier, split on "." (the
    # way traced.py names what it wraps, e.g. "InfluenceField.from_graph").
    # Prose such as the README does not count.  A method named like a dict
    # or list method (``items``, ``get``) still passes through any such call.
    methods: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted((SRC / "evimax").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not node.name.startswith("_")):
                        methods[node.name] = f"{path.name}: {cls.name}.{node.name}"
        used |= _code_names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _code_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
                used.update(node.value.split("."))
    assert methods
    assert sorted(where for name, where in methods.items() if name not in used) == []


# Public callables that no command runs, each kept for a reader outside the CLI.
NOT_RUN_BY_A_COMMAND = {
    # The process entry point; TestProcessExit runs it in a child process.
    "cli.console",
    # perfbench/traced.py wraps it (ROADMAP item 13).
    "fusion.edge_bba_sets",
    # The README's library API (ROADMAP item 10).
    "spread.sigma",
}


def _public_callables() -> dict[types.CodeType, str]:
    """Every public function, method and property defined in the package, by code object."""
    codes: dict[types.CodeType, str] = {}
    for path in sorted((SRC / "evimax").glob("*.py")):
        module = importlib.import_module(
            "evimax" if path.stem == "__init__" else f"evimax.{path.stem}"
        )
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for key, member in members:
                # A property runs its getter; a classmethod its function.
                function = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if not key.startswith("_") and inspect.isfunction(function):
                    codes[function.__code__] = f"{path.stem}.{function.__qualname__}"
    return codes


def test_every_public_callable_runs_in_a_command(tmp_path):
    # A name-based reader check credits any attribute of the same name, so
    # this one runs the four commands and requires every public function,
    # method and property of the package to have run.  Code objects are
    # matched, so no ``co_qualname`` (Python 3.11+) is needed.  The graph is
    # large enough for ``generate`` to densify (``has_edge``), and
    # ``dump-edges`` without ``--retweets`` fuses a constant indicator
    # (``MassFunction.vacuous``).
    csvs = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
    inputs = ["--edges", csvs[0], "--mentions", csvs[1], "--retweets", csvs[2],
              "--activity", csvs[3]]
    out = ["--out", str(tmp_path / "out.csv")]
    commands = [
        ["generate", *inputs, "--users", "30", "--n-edges", "60", "--seed", "3"],
        ["select", *inputs, "--k", "5", *out],
        ["evaluate", *inputs, "--k", "5", *out],
        ["dump-edges", *inputs, *out],
        ["dump-edges", "--edges", csvs[0], "--mentions", csvs[1], *out],
    ]
    called: set[types.CodeType] = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(command) for command in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(commands)
    not_run = {name for code, name in _public_callables().items() if code not in called}
    assert sorted(not_run - NOT_RUN_BY_A_COMMAND) == []
    # An exemption that now runs, or names nothing, is stale.
    assert sorted(NOT_RUN_BY_A_COMMAND - not_run) == []


def test_loader_reads_plain_counts_without_the_count_parser(tmp_path, monkeypatch):
    # A count of ASCII digits shorter than the bound is read with int(); only
    # other text goes through _count, which states the full grammar.
    columns = []
    parse = graph._count
    monkeypatch.setattr(graph, "_count", lambda *args: columns.append(args[3]) or parse(*args))
    files = {
        "e.csv": "src,dst\nann,bob\n",
        "m.csv": "mentioner,mentioned,count\nbob,ann, 007 \ncid,ann,0\n",
        "r.csv": "retweeter,original_author,count\nbob,ann,12\n",
        "a.csv": "user,tweets,followers\nann,5,100\n",
    }
    paths = []
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    g, activities = load_graph(*paths)
    assert columns == []
    assert (g.mentions, g.retweets, activities) == (
        {("ann", "bob"): 7}, {("ann", "bob"): 12}, {"ann": (5, 100)}
    )

    # A valid count too long for int() takes the parser, and only its cell does.
    (tmp_path / "a.csv").write_text(
        "user,tweets,followers\nann," + "0" * 5000 + "7,3\n", encoding="utf-8"
    )
    _, activities = load_graph(*paths)
    assert columns == ["tweets"]
    assert activities == {"ann": (7, 3)}
