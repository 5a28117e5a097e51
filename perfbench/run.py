"""Benchmark of the evimax CLI.

Run from the repository root::

    python3 perfbench/run.py --workload paper-select --seed 1001 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one synthetic dataset plus one CLI command (see
``WORKLOADS``).  ``BENCHMARK.json`` lists ``paper-select`` and
``paper-evaluate``.  ``paper-deep-k`` and ``scale5x-dump-edges`` run only when
named (or with ``all``): a benchmark run yields only one to three samples of
them, and their medians spread more between runs than the bounds allow (see
``BASELINE.md``), so they serve for occasional measurements.

Every ``--out`` file is checked: its structure and the numbers that can be
recomputed from the input CSVs, and its SHA-256 digest.  At the reference
seed the digest must equal the one recorded at the seed commit
(``reference.json``); at any other seed all runs of the set must agree.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one run of
the same command under ``traced.py`` and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

PAPER = (36274, 71027)  # users, follow edges: the paper's crawl
SCALE5X = (200000, 400000)
WORKLOADS = {
    "paper-select": (PAPER, ["select", "--k", "50", "--lambda", "5"]),
    "paper-evaluate": (
        PAPER, ["evaluate", "--k", "50", "--configs", "fixed:0,fixed:0.2,estimated"]),
    "paper-deep-k": (PAPER, ["select", "--alpha", "0.2", "--k", "1500"]),
    "scale5x-dump-edges": (SCALE5X, ["dump-edges"]),
}
SETUP_REPEATS = 5
# A run of the benchmark must end within 180 s; children are killed after this.
CHILD_TIMEOUT_S = 150.0
TOLERANCE = 1e-5  # for numbers printed with 6 decimals


class Child:
    """One finished subprocess: exit code, wall time and resource usage."""

    def __init__(self, cmd: list[str], env: dict, log: Path, timeout: float) -> None:
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log


class Bench:
    """Inputs, children and checks for one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        (self.users, self.edges), self.command = WORKLOADS[workload]
        self.workload, self.seed, self.work = workload, seed, work
        self.hash_seeds = random.Random(seed)
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.inputs = {name: work / f"{name}.csv"
                       for name in ("edges", "mentions", "retweets", "activity")}
        self.children = 0
        self.expected_digest = REFERENCE["digests"][workload] if seed == REFERENCE["seed"] else None
        self.checked: dict[str, str | None] = {}  # digest -> failure reason

    def spawn(self, args: list[str]) -> Child:
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONHASHSEED=str(self.hash_seeds.randrange(2**32)))
        self.children += 1
        log = self.work / f"child{self.children}.err"
        timeout = max(1.0, self.deadline - time.monotonic())
        return Child([sys.executable, *args], env, log, timeout)

    def input_args(self) -> list[str]:
        return [arg for name, path in self.inputs.items() for arg in (f"--{name}", str(path))]

    def generate(self) -> None:
        child = self.spawn(["-m", "evimax.cli", "generate", "--users", str(self.users),
                            "--n-edges", str(self.edges), "--seed", str(self.seed),
                            *self.input_args()])
        if child.code != 0:
            raise SystemExit(f"generating inputs failed:\n{child.log.read_text()}")

    def setup(self) -> Child:
        """A fresh process that imports evimax and loads the four CSVs."""
        return self.spawn(["-c", "import sys, evimax; evimax.load_graph(*sys.argv[1:])",
                           *(str(path) for path in self.inputs.values())])

    def cli(self, traced_to: Path | None = None) -> tuple[Child, str | None, Path]:
        """Run the workload's command once; return it, any failure, and its output."""
        out = self.work / f"out{self.children + 1}.csv"
        entry = ["-m", "evimax.cli"] if traced_to is None else [str(BENCH / "traced.py"), str(traced_to)]
        child = self.spawn([*entry, *self.command, *self.input_args(), "--out", str(out)])
        if child.code != 0:
            return child, f"exit code {child.code}: {child.log.read_text()[-500:]}", out
        return child, self.check(out), out

    def measure(self, seconds: float) -> list[tuple[Child, str | None]]:
        runs = []
        start = time.monotonic()
        while not runs or time.monotonic() - start < seconds:
            child, failure, out = self.cli()
            runs.append((child, failure))
            out.unlink(missing_ok=True)
        return runs

    # -- correctness ------------------------------------------------------

    def check(self, out: Path) -> str | None:
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.expected_digest is None:
            self.expected_digest = digest  # the first run of the set is the reference
        if digest not in self.checked:
            self.checked[digest] = self.check_content(out)
        if self.checked[digest] is not None:
            return self.checked[digest]
        if digest != self.expected_digest:
            return f"sha256 {digest} differs from {self.expected_digest}"
        return None

    def check_content(self, out: Path) -> str | None:
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        check = {"select": self.check_select, "evaluate": self.check_evaluate,
                 "dump-edges": self.check_dump}[self.command[0]]
        try:
            check(rows)
        except (ValueError, KeyError, IndexError) as exc:
            return f"bad output: {exc!r}"
        return None

    def read_inputs(self) -> dict:
        def rows(name):
            with open(self.inputs[name], newline="", encoding="utf-8") as handle:
                return list(csv.reader(handle))[1:]
        return {name: rows(name) for name in self.inputs}

    def k(self) -> int:
        return int(self.command[self.command.index("--k") + 1])

    def check_select(self, rows: list[list[str]]) -> None:
        require(rows[0] == ["rank", "user", "marginal_gain", "cumulative_sigma"], "header")
        require(len(rows) - 1 == min(self.k(), self.users), "row count")
        users = {row[0] for row in self.read_inputs()["activity"]}
        previous = 0.0
        for rank, (text_rank, user, gain, total) in enumerate(rows[1:], 1):
            require(int(text_rank) == rank and user in users, f"rank {rank}")
            require(abs(previous + float(gain) - float(total)) <= TOLERANCE,
                    f"cumulative sigma at rank {rank}")
            previous = float(total)
        require(len({row[1] for row in rows[1:]}) == len(rows) - 1, "distinct seeds")

    def check_evaluate(self, rows: list[list[str]]) -> None:
        require(rows[0] == ["config", "rank", "user", "follows_acc", "mentions_acc",
                            "retweets_acc", "tweets_acc"], "header")
        inputs = self.read_inputs()
        stats = {user: [int(followers), 0, 0, int(tweets)]
                 for user, tweets, followers in inputs["activity"]}
        for _, mentioned, count in inputs["mentions"]:
            stats[mentioned][1] += int(count)
        for _, author, count in inputs["retweets"]:
            stats[author][2] += int(count)
        configs = self.command[self.command.index("--configs") + 1].split(",")
        k = min(self.k(), self.users)
        require(len(rows) - 1 == k * len(configs), "row count")
        for i, config in enumerate(configs):
            block = rows[1 + i * k: 1 + (i + 1) * k]
            acc = [0, 0, 0, 0]
            for rank, (name, text_rank, user, *curve) in enumerate(block, 1):
                require(name == config and int(text_rank) == rank, f"{config} rank {rank}")
                acc = [a + b for a, b in zip(acc, stats[user])]
                require([int(value) for value in curve] == acc, f"{config} curve at {rank}")
            require(len({row[2] for row in block}) == k, f"{config} distinct seeds")

    def check_dump(self, rows: list[list[str]]) -> None:
        require(rows[0] == ["src", "dst", "w_1", "w_2", "w_3",
                            "alpha_1", "alpha_2", "alpha_3", "inf"], "header")
        inputs = self.read_inputs()
        counts = {(src, dst): [0, 0] for src, dst in inputs["edges"]}
        for j, name in ((0, "mentions"), (1, "retweets")):
            for follower, followee, count in inputs[name]:
                counts.setdefault((followee, follower), [0, 0])[j] += int(count)
        lows = [min(c[j] for c in counts.values()) for j in (0, 1)]
        highs = [max(c[j] for c in counts.values()) for j in (0, 1)]
        require(len(rows) - 1 == len(counts), "one row per edge")
        for src, dst, *numbers in rows[1:]:
            values = [float(x) for x in numbers]
            require(all(0.0 <= x <= 1.0 for x in values), f"range on {src}->{dst}")
            # w_2 and w_3 are the min-max normalized mention and retweet counts.
            c = counts.pop((src, dst))
            for j in (0, 1):
                span = highs[j] - lows[j]
                expected = (c[j] - lows[j]) / span if span else 0.0
                require(abs(values[1 + j] - expected) <= TOLERANCE, f"w_{j + 2} on {src}->{dst}")
        require(not counts, "edges missing from the dump")


def require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(what)


# -- metrics --------------------------------------------------------------


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        runs = " ".join(f"{value:.3f}" for value in values)
        return f"median of {n} runs ({runs}); a tail percentile needs 11 or more"
    return f"median of {n} runs; p{100 * (n - 10) / n:.0f} = {sorted(values)[n - 11]:.4f} s"


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list]:
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    if any(child.code != 0 for child in setups):
        raise SystemExit(f"loading the inputs failed:\n{setups[0].log.read_text()}")
    runs = bench.measure(seconds)
    children = [child for child, _ in runs]
    wall = statistics.median(child.wall_s for child in children)
    metrics = {
        "wall_s": (wall, "s", high_percentile([c.wall_s for c in children])),
        "cpu_s": (statistics.median(c.cpu_s for c in children), "s", "user+sys of the child"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB", "ru_maxrss"),
        "edges_per_s": (bench.edges / wall, "1/s", f"{bench.edges} input edges"),
        "setup_s": (statistics.median(c.wall_s for c in setups), "s",
                    f"median of {SETUP_REPEATS} fresh import + load_graph"),
    }
    return metrics, runs


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list]:
    runs = bench.measure(seconds)
    untraced = statistics.median(child.wall_s for child, _ in runs)
    trace_path = bench.work / "trace.json"
    child, failure, out = bench.cli(traced_to=trace_path)
    runs.append((child, failure))
    if child.code != 0:
        raise SystemExit(f"the traced run failed: {failure}")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    spans, calls = trace["spans"], trace["calls"]

    def spans_of(name):
        return [span for span in spans if span["name"] == name]

    def duration(name):
        return sum(span["end"] - span["start"] for span in spans_of(name))

    def self_time(module):
        prefix = module + "."
        return (sum(s["self_s"] for s in spans if s["name"].startswith(prefix))
                + sum(c["self_s"] for n, c in calls.items() if n.startswith(prefix)))

    def note_sum(name, key):
        return sum(span["note"][key] for span in spans_of(name))

    evaluations = note_sum("maximize.select_celf", "evaluations")
    seed_calls = calls["spread.InfluenceField.seed_contributions"]
    values = {
        "graph.load_graph_s": duration("graph.load_graph"),
        "graph.raw_indicators_s": duration("graph.raw_indicators"),
        "graph.raw_indicators_calls": len(spans_of("graph.raw_indicators")),
        "fusion.edge_bba_sets_s": duration("fusion.edge_bba_sets"),
        "fusion.fuse_edge_s": calls["fusion.fuse_edge"]["total_s"],
        "fusion.fuse_all_s": duration("fusion.fuse_all"),
        "fusion.fuse_edge_calls": calls["fusion.fuse_edge"]["calls"],
        "fusion.self_s": self_time("fusion"),
        "belief.combine_dempster_calls": calls["belief.combine_dempster"]["calls"],
        "belief.discount_calls": calls["belief.discount"]["calls"],
        "belief.jousselme_distance_calls": calls["belief.jousselme_distance"]["calls"],
        "belief.time_s": self_time("belief"),
        "spread.field_build_s": duration("spread.InfluenceField.from_graph"),
        "spread.seed_contributions_calls": seed_calls["calls"],
        "spread.seed_contributions_s": seed_calls["total_s"],
        "spread.frontier_entries": seed_calls["entries"],
        "maximize.select_celf_s": duration("maximize.select_celf"),
        "maximize.self_s": self_time("maximize"),
        "maximize.gain_evaluations": evaluations,
        "maximize.lazy_reevaluations": evaluations - note_sum("maximize.select_celf", "users"),
        "maximize.useful_ratio": (note_sum("maximize.select_celf", "commits") / evaluations
                                  if evaluations else 0.0),
        "evaluate.compare_configs_s": duration("evaluate.compare_configs"),
        "evaluate.self_s": self_time("evaluate"),
        "evaluate.configs_run": note_sum("evaluate.compare_configs", "configs"),
        "cli.self_s": self_time("cli"),
        "cli.out_rows": len(out.read_bytes().splitlines()) - 1,
        "cli.out_bytes": out.stat().st_size,
        "trace.overhead_s": child.wall_s - untraced,
    }
    out.unlink()
    notes = {"trace.overhead_s": f"traced run {child.wall_s:.3f} s, untraced median {untraced:.3f} s"}
    if bench.seed == REFERENCE["seed"]:
        # Counts at the reference seed must repeat exactly; report any drift.
        for name, expected in REFERENCE["counts"][bench.workload].items():
            notes[name] = ("as at the seed commit" if values[name] == expected
                           else f"DRIFT: {expected} at the seed commit")
    return {name: (value, unit_of(name), notes.get(name, "")) for name, value in values.items()}, runs


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        bench = Bench(workload, seed, work)
        bench.generate()
        metrics, runs = (per_layer if trace else end_to_end)(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [failure for _, failure in runs if failure is not None]
    print(f"workload {workload}  seed {seed}  {bench.users} users / {bench.edges} edges  "
          f"command: {' '.join(bench.command)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34} {value:>14.6g} {unit:6} {note}")
    print(f"  {'failed_runs':34} {len(failures) / len(runs):>14.6g} {'ratio':6} "
          f"{len(failures)} of {len(runs)} runs")
    for failure in dict.fromkeys(failures):
        print(f"  failure: {failure}")
    return metrics, runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE["seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "evimax" / "cli.py").is_file():
        print(f"evimax sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        values, runs = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit, _) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        attempted += len(runs)
        failed += sum(failure is not None for _, failure in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
