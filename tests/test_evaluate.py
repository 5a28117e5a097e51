"""Quality curves and the fixed-vs-estimated configuration comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from evimax.evaluate import EvaluationError, compare_configs, quality_curve, received_totals
from evimax.fusion import ReliabilityConfig
from evimax.graph import SocialGraph, UserActivity
from evimax.maximize import InvalidKError, SeedChoice, SeedSelection
from evimax.spread import InfluenceField
from evimax.synthetic import generate_synthetic
from tests.helpers import synthetic_graphs

# The CLI's default evaluate sweep.
SWEEP = [
    ReliabilityConfig.fixed(0.0),
    ReliabilityConfig.fixed(0.2),
    ReliabilityConfig.estimated(),
]


def selection_of(*users: str) -> SeedSelection:
    return SeedSelection(
        [SeedChoice(i + 1, u, 1.0, float(i + 1)) for i, u in enumerate(users)]
    )


class TestQualityCurve:
    def test_prefix_sums_follow_ranking(self):
        activities = {
            "u1": UserActivity("u1", tweets=1, followers=10),
            "u2": UserActivity("u2", tweets=2, followers=5),
        }
        curve = quality_curve(selection_of("u1", "u2"), activities, {})
        assert curve.follows == [10, 15]
        assert curve.tweets == [1, 3]

    def test_zero_activity_gives_zero_curves(self):
        activities = {"u1": UserActivity("u1"), "u2": UserActivity("u2")}
        curve = quality_curve(selection_of("u1", "u2"), activities, {})
        assert curve.follows == [0, 0]
        assert curve.mentions == [0, 0]
        assert curve.retweets == [0, 0]
        assert curve.tweets == [0, 0]

    def test_single_seed_criteria_order(self):
        activities = {"u1": UserActivity("u1", tweets=3, followers=7)}
        curve = quality_curve(selection_of("u1"), activities, {"u1": [2, 1]})
        assert (curve.follows, curve.mentions, curve.retweets, curve.tweets) == (
            [7], [2], [1], [3]
        )

    def test_missing_activity_counts_zero(self):
        curve = quality_curve(selection_of("ghost"), {}, {})
        assert (curve.follows, curve.mentions, curve.retweets, curve.tweets) == (
            [0], [0], [0], [0]
        )

    def test_received_and_activity_are_read_apart(self):
        # u1 has received counts but no activity row, u2 the reverse.
        activities = {"u2": UserActivity("u2", tweets=4, followers=6)}
        curve = quality_curve(selection_of("u1", "u2"), activities, {"u1": [3, 5]})
        assert (curve.follows, curve.mentions, curve.retweets, curve.tweets) == (
            [0, 6], [3, 3], [5, 5], [0, 4]
        )

    def test_truncated_selection_is_a_prefix(self):
        activities = {
            f"u{i}": UserActivity(f"u{i}", tweets=i, followers=2 * i) for i in range(6)
        }
        users = [f"u{i}" for i in range(6)]
        received = {f"u{i}": [i, 3 * i] for i in range(6)}
        full = quality_curve(selection_of(*users), activities, received)
        half = quality_curve(selection_of(*users[:3]), activities, received)
        assert half.follows == full.follows[:3]
        assert half.mentions == full.mentions[:3]
        assert half.retweets == full.retweets[:3]
        assert half.tweets == full.tweets[:3]

    def test_curves_are_monotone(self):
        g, activities = generate_synthetic(seed=21, n_users=40, n_edges=100)
        report = compare_configs(g, activities, SWEEP, k=10)
        for entry in report.entries:
            for series in (
                entry.curve.follows,
                entry.curve.mentions,
                entry.curve.retweets,
                entry.curve.tweets,
            ):
                assert all(a <= b for a, b in zip(series, series[1:]))


class TestReceivedTotals:
    def test_sums_each_source_over_its_out_edges(self):
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_mentions("a", "b", 2)
        g.add_mentions("a", "c", 3)
        g.add_retweets("a", "c", 4)
        g.add_retweets("b", "c", 1)
        g.add_mentions("c", "a", 0)  # a zero count creates the edge only
        assert received_totals(g) == {"a": [5, 4], "b": [0, 1]}

    def test_curves_read_the_graph_counters(self):
        # Every seed's mentions and retweets are its out-edges' counts.
        g, activities = generate_synthetic(seed=28, n_users=60, n_edges=150)
        report = compare_configs(g, activities, SWEEP, k=10)
        for entry in report.entries:
            mentions = retweets = 0
            for i, user in enumerate(entry.selection.users()):
                mentions += sum(n for (u, _), n in g.mentions.items() if u == user)
                retweets += sum(n for (u, _), n in g.retweets.items() if u == user)
                assert (entry.curve.mentions[i], entry.curve.retweets[i]) == (
                    mentions, retweets
                )
            assert entry.curve.mentions[-1] > 0


class TestCompareConfigs:
    def test_fixed_zero_alpha_selects_in_id_order(self):
        # Zero reliability zeroes every influence value, so every candidate
        # gains exactly 1 and the tie-break picks ids in ascending order.
        g, activities = generate_synthetic(seed=22, n_users=30, n_edges=80)
        report = compare_configs(
            g, activities, [ReliabilityConfig.fixed(0.0)], k=5
        )
        expected = sorted(g.users)[:5]
        assert report.entries[0].selection.users() == expected
        follows = [activities[u].followers for u in expected]
        assert report.entries[0].curve.follows == [
            sum(follows[: i + 1]) for i in range(5)
        ]

    def test_identical_configs_give_identical_curves(self):
        g, activities = generate_synthetic(seed=23, n_users=40, n_edges=110)
        cfgs = [ReliabilityConfig.estimated(), ReliabilityConfig.estimated()]
        report = compare_configs(g, activities, cfgs, k=8)
        first, second = report.entries
        assert first.selection.users() == second.selection.users()
        assert first.curve == second.curve

    def test_k_is_honored(self):
        g, activities = generate_synthetic(seed=24, n_users=60, n_edges=150)
        report = compare_configs(g, activities, SWEEP, k=12)
        assert report.k == 12
        for entry in report.entries:
            assert len(entry.selection) == 12
            assert len(entry.curve) == 12

    def test_rejects_bad_k_and_empty_sweep(self):
        g, activities = generate_synthetic(seed=25, n_users=10, n_edges=20)
        with pytest.raises(InvalidKError):
            compare_configs(g, activities, SWEEP, k=0)
        with pytest.raises(ValueError):
            compare_configs(g, activities, [], k=5)

    def test_pipeline_errors_name_the_config(self):
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "d")
        g.add_mentions("a", "b", 5)
        g.add_retweets("c", "d", 3)
        with pytest.raises(EvaluationError) as err:
            compare_configs(
                g, {}, [ReliabilityConfig.fixed(1.0)], k=2
            )
        assert "fixed:1" in str(err.value)

    @settings(max_examples=30, deadline=None)
    @given(graph=synthetic_graphs())
    def test_sweep_equals_single_config_runs(self, graph):
        # The sweep shares one indicator prefix across configs; each entry
        # must still equal a run of its config alone.
        g, activities = graph
        cfgs = [
            ReliabilityConfig.fixed(0.2),
            ReliabilityConfig.estimated(lam=5.0),
            ReliabilityConfig.estimated(lam=2.0),
        ]
        report = compare_configs(g, activities, cfgs, k=4)
        singles = [compare_configs(g, activities, [cfg], k=4).entries[0] for cfg in cfgs]
        assert report.entries == singles

    def test_deterministic(self):
        g, activities = generate_synthetic(seed=26, n_users=40, n_edges=100)
        r1 = compare_configs(g, activities, SWEEP, k=6)
        r2 = compare_configs(g, activities, SWEEP, k=6)
        assert [e.selection.users() for e in r1.entries] == [
            e.selection.users() for e in r2.entries
        ]
        assert [e.curve for e in r1.entries] == [e.curve for e in r2.entries]


# Four configs whose fused records carry their alpha as every reliability.
FIXED = [ReliabilityConfig.fixed(alpha) for alpha in (0.1, 0.2, 0.3, 0.4)]


def plant_failures(monkeypatch, alphas):
    """Make the field build of every fixed config in ``alphas`` raise."""
    real = InfluenceField.from_graph

    def from_graph(cls, fused):
        alpha = fused.records[0].reliabilities[0]
        if alpha in alphas:
            raise ValueError(f"planted failure at alpha {alpha}")
        return real(fused)

    monkeypatch.setattr(InfluenceField, "from_graph", classmethod(from_graph))


class TestSweep:
    """The sweep runs its configs one after another in this process."""

    def test_error_names_its_config(self, monkeypatch):
        g, activities = generate_synthetic(seed=27, n_users=40, n_edges=100)
        plant_failures(monkeypatch, {0.2})
        with pytest.raises(EvaluationError, match="^config fixed:0.2: planted"):
            compare_configs(g, activities, FIXED, k=5)

    @pytest.mark.parametrize(
        "failing, reported",
        [({0.2, 0.3}, "fixed:0.2"), ({0.3, 0.4}, "fixed:0.3"), ({0.1, 0.4}, "fixed:0.1")],
    )
    def test_first_failing_config_in_config_order_is_reported(
        self, monkeypatch, failing, reported
    ):
        g, activities = generate_synthetic(seed=27, n_users=40, n_edges=100)
        plant_failures(monkeypatch, failing)
        with pytest.raises(EvaluationError, match=f"^config {reported}: planted"):
            compare_configs(g, activities, FIXED, k=5)

    def test_a_config_fails_before_a_later_one_is_fused(self, monkeypatch):
        # fixed:1 meets total conflict in fusion; fixed:0.1 fails later in
        # its pipeline, at the field build, but comes first in the sweep.
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_edge("c", "d")
        g.add_mentions("a", "b", 5)
        g.add_retweets("c", "d", 3)
        plant_failures(monkeypatch, {0.1})
        configs = [ReliabilityConfig.fixed(0.1), ReliabilityConfig.fixed(1.0)]
        with pytest.raises(EvaluationError, match="^config fixed:0.1: planted"):
            compare_configs(g, {}, configs, k=2)
        with pytest.raises(EvaluationError, match="^config fixed:1: "):
            compare_configs(g, {}, configs[::-1], k=2)

    def test_deep_sweep_entry_equals_its_one_config_sweep(self):
        g, activities = generate_synthetic(seed=29, n_users=2000, n_edges=4000)
        report = compare_configs(g, activities, SWEEP, k=1500)
        assert [len(entry.selection) for entry in report.entries] == [1500] * 3
        assert report.entries[1] == compare_configs(g, activities, SWEEP[1:2], k=1500).entries[0]
