"""Seed-quality curves and side-by-side configuration comparison.

A selection is judged by four accumulated statistics along its ranking:
followers and tweets from the activity records, and the mentions and
retweets received, which ``received_totals`` sums from the graph's counters.
The comparison runner computes the raw indicators and their normalization
once and, config by config in one process, fuses the graph, builds the
influence field and runs its CELF selection, then aligns the resulting
curves in config order, mirroring the fixed-alpha versus estimated-alpha
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import FusionError, ReliabilityConfig, fuse_configs
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


def received_totals(g: SocialGraph) -> dict[str, list[int]]:
    """Each user's ``[mentions, retweets]`` received on its out-edges, if either is nonzero."""
    totals: dict[str, list[int]] = {}
    for j, counts in enumerate((g.mentions, g.retweets)):
        for (u, _), count in counts.items():
            totals.setdefault(u, [0, 0])[j] += count
    return totals


def quality_curve(
    selection: SeedSelection,
    activities: dict[str, UserActivity],
    received: dict[str, list[int]],
) -> QualityCurve:
    """Accumulate the four statistics over the ranking; missing users count zero."""
    curve = QualityCurve([], [], [], [])
    follows = mentions = retweets = tweets = 0
    for choice in selection.choices:
        record = activities.get(choice.user)
        if record is not None:
            follows += record.followers
            tweets += record.tweets
        m, r = received.get(choice.user, (0, 0))
        mentions += m
        retweets += r
        curve.follows.append(follows)
        curve.mentions.append(mentions)
        curve.retweets.append(retweets)
        curve.tweets.append(tweets)
    return curve


def compare_configs(
    g: SocialGraph,
    activities: dict[str, UserActivity],
    configs: list[ReliabilityConfig],
    k: int,
) -> ComparisonReport:
    """Select k seeds under each configuration and align their curves.

    The configs run one after another, sharing one indicator prefix through
    ``fuse_configs``: each is fused, its field built and its CELF run before
    the next is fused, so one config's records and field are alive at a
    time, beside the received totals summed once for the sweep.  An error of
    a config's fusion, field build or CELF run names the config, and the
    first failing config in config order stops the sweep.
    """
    k_eff = _effective_k(g.num_users(), k)
    if not configs:
        raise ValueError("at least one configuration is required")
    entries: list[ReportEntry] = []
    received = received_totals(g)
    stream = fuse_configs(g, configs)
    for cfg in configs:
        try:
            selection = select_celf(InfluenceField.from_graph(next(stream)), k)
        except (FusionError, ValueError) as exc:
            raise EvaluationError(f"config {cfg.name}: {exc}") from exc
        curve = quality_curve(selection, activities, received)
        entries.append(ReportEntry(cfg.name, selection, curve))
    return ComparisonReport(k_eff, entries)
