"""Seed-quality curves and side-by-side configuration comparison.

A selection is judged by four accumulated statistics along its ranking:
followers, mentions received, retweets received, and tweets authored.  The
comparison runner computes the raw indicators and their normalization once,
then runs fusion, the influence field and CELF per reliability configuration
on the same graph and aligns the resulting curves, mirroring the fixed-alpha
versus estimated-alpha protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import FusionError, ReliabilityConfig, fuse_configs
from .graph import SocialGraph, UserActivity
from .maximize import SeedSelection, select_celf
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


def compare_configs(
    g: SocialGraph,
    activities: dict[str, UserActivity],
    configs: list[ReliabilityConfig],
    k: int,
) -> ComparisonReport:
    """Select k seeds under each configuration and align their curves.

    The indicator prefix is shared through ``fuse_configs``; each config's
    per-edge influences are dropped once its seeds are selected.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not configs:
        raise ValueError("at least one configuration is required")
    entries: list[ReportEntry] = []
    fused = fuse_configs(g, configs)
    for cfg in configs:
        try:
            selection = select_celf(InfluenceField.from_graph(next(fused)), k)
        except (FusionError, ValueError) as exc:
            raise EvaluationError(f"config {cfg.name}: {exc}") from exc
        entries.append(
            ReportEntry(cfg.name, selection, quality_curve(selection, activities))
        )
    return ComparisonReport(min(k, g.num_users()), entries)
