"""Seed-quality curves and side-by-side configuration comparison.

A selection is judged by four accumulated statistics along its ranking:
followers, mentions received, retweets received, and tweets authored.  The
comparison runner computes the raw indicators and their normalization once
and fuses every reliability configuration on the same graph, then builds
each config's influence field and runs its CELF selection, on up to one
process per usable CPU, and aligns the resulting curves in config order,
mirroring the fixed-alpha versus estimated-alpha protocol.  The report is
the same whichever process ran a config: a forked worker sends its
``SeedSelection`` back pickled, and floats survive pickling bit for bit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import BinaryIO

from .fusion import FusedEdges, FusionError, ReliabilityConfig, fuse_configs
from .graph import SocialGraph, UserActivity
from .maximize import SeedSelection, _effective_k, select_celf
from .spread import InfluenceField


class EvaluationError(RuntimeError):
    """An input or configuration error while evaluating one named configuration."""


@dataclass
class QualityCurve:
    """Prefix sums of the four per-user statistics along a seed ranking."""

    follows: list[int]
    mentions: list[int]
    retweets: list[int]
    tweets: list[int]

    def __len__(self) -> int:
        return len(self.follows)


@dataclass
class ReportEntry:
    name: str
    selection: SeedSelection
    curve: QualityCurve


@dataclass
class ComparisonReport:
    k: int
    entries: list[ReportEntry]


def quality_curve(
    selection: SeedSelection, activities: dict[str, UserActivity]
) -> QualityCurve:
    """Accumulate the four statistics over the ranking; missing users count zero."""
    curve = QualityCurve([], [], [], [])
    follows = mentions = retweets = tweets = 0
    for choice in selection.choices:
        record = activities.get(choice.user)
        if record is not None:
            follows += record.followers
            mentions += record.mentions_received
            retweets += record.retweets_received
            tweets += record.tweets
        curve.follows.append(follows)
        curve.mentions.append(mentions)
        curve.retweets.append(retweets)
        curve.tweets.append(tweets)
    return curve


# Errors of one config's input or settings, reported under the config's name.
_CONFIG_ERRORS = (FusionError, ValueError)


def compare_configs(
    g: SocialGraph,
    activities: dict[str, UserActivity],
    configs: list[ReliabilityConfig],
    k: int,
) -> ComparisonReport:
    """Select k seeds under each configuration and align their curves.

    Every config is fused first, in this process, sharing one indicator
    prefix through ``fuse_configs``; the field builds and CELF runs are then
    spread over up to one process per usable CPU (see ``_select_all``).
    An error names the first failing config in config order.
    """
    k_eff = _effective_k(g.num_users(), k)
    if not configs:
        raise ValueError("at least one configuration is required")
    fused: list[FusedEdges] = []
    stream = fuse_configs(g, configs)
    for cfg in configs:
        try:
            fused.append(next(stream))
        except _CONFIG_ERRORS as exc:
            raise EvaluationError(f"config {cfg.name}: {exc}") from exc
    entries: list[ReportEntry] = []
    for cfg, outcome in zip(configs, _select_all(fused, k)):
        if isinstance(outcome, _CONFIG_ERRORS):
            raise EvaluationError(f"config {cfg.name}: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise outcome
        entries.append(ReportEntry(cfg.name, outcome, quality_curve(outcome, activities)))
    return ComparisonReport(k_eff, entries)


def _select_each(
    fused: list[FusedEdges], k: int
) -> list[SeedSelection | Exception]:
    """Each config's seeds, or the exception its field build or CELF raised."""
    outcomes: list[SeedSelection | Exception] = []
    for edges in fused:
        try:
            outcomes.append(select_celf(InfluenceField.from_graph(edges), k))
        except Exception as exc:  # raised in config order by compare_configs
            outcomes.append(exc)
    return outcomes


def _select_all(
    fused: list[FusedEdges], k: int
) -> list[SeedSelection | Exception]:
    """``_select_each`` of every config, on up to one process per usable CPU.

    With n processes, config i runs in process i % n, where process 0 is
    this one and each other is a forked worker that pickles its outcomes
    into a pipe.  n is 1, and nothing is forked, where ``os.fork`` is
    missing or another thread runs (forking a threaded process can deadlock
    the child); a worker that cannot be forked leaves its configs to this
    process.  Every worker is reaped before this returns or raises.
    """
    n = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        )
        n = min(len(fused), cpus)
    if n > 1:
        import pickle  # only here: a one-process run never needs it
    outcomes: list = [None] * len(fused)
    workers: dict[int, tuple[int, BinaryIO]] = {}  # slot -> (pid, read end)
    try:
        for slot in range(1, n):
            try:
                workers[slot] = _fork(fused[slot::n], k)
            except OSError:  # no process to spare: this one runs the rest
                break
        for slot in range(n):
            if slot not in workers:
                outcomes[slot::n] = _select_each(fused[slot::n], k)
        for slot, (pid, pipe) in list(workers.items()):
            # Read to EOF before waiting: a large result fills the pipe, and
            # its worker cannot exit until the pipe is drained.
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[slot]
            if status or not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"evaluate worker {pid} ended with status {code}"
                                   " before sending its results")
            outcomes[slot::n] = pickle.loads(payload)
    finally:
        # Left only when this process raised.  Each such worker still ends:
        # once its pipe is closed here, its write fails and it exits.
        for pid, pipe in workers.values():
            pipe.close()
            os.waitpid(pid, 0)
    return outcomes


def _fork(fused: list[FusedEdges], k: int) -> tuple[int, BinaryIO]:
    """Fork a worker that pickles ``_select_each(fused, k)`` into a pipe."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # The worker exits here, whatever happens: returning would run the
        # caller's stack a second time (a test runner, atexit handlers, a
        # tracer that writes its file on the way out).
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(_select_each(fused, k), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")
