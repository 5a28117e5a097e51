"""Run one evimax CLI command with its layer boundaries traced.

Usage, with ``src`` on PYTHONPATH::

    python3 perfbench/traced.py TRACE.json <evimax CLI arguments>

The program itself is not changed: this script wraps public functions of the
evimax modules from outside, runs ``evimax.cli.main`` and writes what it
recorded to TRACE.json when the command ends.  Its exit code is the CLI's.

Two kinds of wrapper are used:

* ``SPANS`` are called a handful of times per command.  Each call is kept in
  memory as a span: name, start, end, the id of the enclosing span, and its
  self time (duration minus the time covered by traced calls inside it).
* ``CALLS`` are called up to millions of times per command.  Each name keeps
  only a call count, summed time and summed self time, so tracing them does
  not need one record per call.

Modules import each other's functions into their own namespaces (``cli``
imports ``fuse_all`` and ``select_celf``, ``fusion`` imports the belief
functions), so every wrapped function is replaced in every evimax module
that holds a reference to it, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) -> optional note taken from (args, result) on success.
SPANS = {
    ("cli", "main"): None,
    ("graph", "load_graph"): None,
    ("graph", "raw_indicators"): None,
    ("fusion", "fuse_all"): None,
    ("fusion", "edge_bba_sets"): None,
    ("spread", "InfluenceField.from_graph"): None,
    ("maximize", "select_celf"): lambda args, result: {
        "evaluations": result.gain_evaluations,
        "commits": len(result),
        "users": args[0].num_users(),
    },
    ("evaluate", "compare_configs"): lambda args, result: {"configs": len(args[2])},
}
# (module, attribute) -> optional per-call number summed into "entries".
CALLS = {
    ("fusion", "fuse_edge"): None,
    ("belief", "combine_dempster"): None,
    ("belief", "discount"): None,
    ("belief", "jousselme_distance"): None,
    ("spread", "InfluenceField.seed_contributions"): lambda args, result: len(result),
}


class Tracer:
    """In-memory spans and call aggregates for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, dict] = {}
        # One frame per active wrapped call: [enclosing span id, child time].
        self._stack: list[list] = [[None, 0.0]]

    def span(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._stack[-1][0]}
            frame = [len(self.spans), 0.0]
            self.spans.append(record)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._stack[-1][1] += end - start
                record.update(start=start, end=end, self_s=end - start - frame[1])
            if note is not None:
                record["note"] = note(args, result)
            return result

        return wrapper

    def call(self, name, fn, note):
        totals = self.calls.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "entries": 0}
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._stack[-1][0], 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._stack[-1][1] += elapsed
                totals["calls"] += 1
                totals["total_s"] += elapsed
                totals["self_s"] += elapsed - frame[1]
            if note is not None:
                totals["entries"] += note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever an evimax module refers to it."""
        importlib.import_module("evimax")
        replacements: dict[int, object] = {}
        for table, make in ((SPANS, self.span), (CALLS, self.call)):
            for (module_name, attr), note in table.items():
                owner = importlib.import_module(f"evimax.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = make(f"{module_name}.{attr}", fn, note)
                setattr(owner, leaf, classmethod(wrapped) if is_classmethod else wrapped)
                replacements[id(fn)] = wrapped
        for module_name, module in list(sys.modules.items()):
            if module_name != "evimax" and not module_name.startswith("evimax."):
                continue
            for key, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and callable(value):
                    setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "calls": self.calls}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE.json <evimax CLI arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    from evimax import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
