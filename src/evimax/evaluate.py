"""Seed-quality curves and side-by-side configuration comparison.

A selection is judged by four accumulated statistics along its ranking, in
``CURVE_COLUMNS`` order: followers and tweets from the activity map's
``(tweets, followers)`` pairs, and the mentions and retweets received, which
``received_totals`` sums from the graph's counters for the ranked users.  A
curve is one row of running totals per rank, the rows that ``evaluate
--out`` writes after each seed's config, rank and user.
The comparison runner computes the raw indicators and their normalization
once and, config by config in one process, fuses the graph, builds the
influence field and runs its CELF selection, mirroring the fixed-alpha
versus estimated-alpha protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .fusion import ReliabilityConfig, fuse_configs
from .graph import SocialGraph
from .maximize import SeedSelection, _check_k, select_celf
from .spread import InfluenceField

# The header of each curve row's cells, in the order a row holds them.
CURVE_COLUMNS = ("follows_acc", "mentions_acc", "retweets_acc", "tweets_acc")


class EvaluationError(ValueError):
    """An input or configuration error while evaluating one named configuration."""


@dataclass
class ReportEntry:
    """One config's seeds and, per rank, its ``CURVE_COLUMNS`` running totals."""

    name: str
    selection: SeedSelection
    curve: list[tuple[int, int, int, int]]


def received_totals(g: SocialGraph, users: Iterable[str]) -> dict[str, list[int]]:
    """Each of ``users``' ``[mentions, retweets]`` received on its out-edges.

    A user who received neither is left out.
    """
    wanted = set(users)
    totals: dict[str, list[int]] = {}
    for j, counts in enumerate((g.mentions, g.retweets)):
        for (u, _), count in counts.items():
            if u in wanted:
                totals.setdefault(u, [0, 0])[j] += count
    return totals


def quality_curve(
    users: Iterable[str],
    activities: dict[str, tuple[int, int]],
    received: dict[str, list[int]],
) -> list[tuple[int, int, int, int]]:
    """One row of running ``CURVE_COLUMNS`` totals per ranked user; missing users add zero."""
    rows = []
    follows = mentions = retweets = tweets = 0
    for user in users:
        t, f = activities.get(user, (0, 0))
        follows += f
        tweets += t
        m, r = received.get(user, (0, 0))
        mentions += m
        retweets += r
        rows.append((follows, mentions, retweets, tweets))
    return rows


def compare_configs(
    g: SocialGraph,
    activities: dict[str, tuple[int, int]],
    configs: list[ReliabilityConfig],
    k: int,
) -> list[ReportEntry]:
    """Select k seeds under each configuration, with their curves, in config order.

    The configs run one after another, sharing one indicator prefix through
    ``fuse_configs``: each is fused, its field built and its CELF run before
    the next is fused, so one config's records and field are alive at a
    time.  An error of a config's fusion, field build or CELF run names the
    config, and the first failing config in config order stops the sweep.
    Once every config has its seeds, one pass over the graph's counters sums
    the mentions and retweets received by the ranked users alone, and the
    curves are read off those totals.
    """
    _check_k(k)
    if not configs:
        raise ValueError("at least one configuration is required")
    selections: list[SeedSelection] = []
    stream = fuse_configs(g, configs)
    for cfg in configs:
        try:
            selections.append(select_celf(InfluenceField.from_graph(next(stream)), k))
        except ValueError as exc:
            raise EvaluationError(f"config {cfg.name}: {exc}") from exc
    received = received_totals(g, {u for selection in selections for u in selection.users})
    return [
        ReportEntry(cfg.name, selection, quality_curve(selection.users, activities, received))
        for cfg, selection in zip(configs, selections)
    ]
