"""Quality curves and the fixed-vs-estimated configuration comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from evimax.evaluate import (
    CURVE_COLUMNS,
    EvaluationError,
    compare_configs,
    quality_curve,
    received_totals,
)
from evimax.fusion import ReliabilityConfig
from evimax.graph import SocialGraph
from evimax.maximize import InvalidKError
from evimax.spread import InfluenceField
from evimax.synthetic import generate_synthetic
from tests.helpers import synthetic_graphs
from tests.oracles import add_count

# The CLI's default evaluate sweep.
SWEEP = [
    ReliabilityConfig(0.0),
    ReliabilityConfig(0.2),
    ReliabilityConfig(),
]


class TestQualityCurve:
    def test_prefix_sums_follow_ranking(self):
        activities = {"u1": (1, 10), "u2": (2, 5)}
        curve = quality_curve(["u1", "u2"], activities, {})
        assert curve == [(10, 0, 0, 1), (15, 0, 0, 3)]

    def test_zero_activity_gives_zero_curves(self):
        activities = {"u1": (0, 0), "u2": (0, 0)}
        curve = quality_curve(["u1", "u2"], activities, {})
        assert curve == [(0, 0, 0, 0), (0, 0, 0, 0)]

    def test_single_seed_criteria_order(self):
        activities = {"u1": (3, 7)}
        curve = quality_curve(["u1"], activities, {"u1": [2, 1]})
        assert curve == [(7, 2, 1, 3)]
        assert CURVE_COLUMNS == ("follows_acc", "mentions_acc", "retweets_acc", "tweets_acc")

    def test_missing_activity_counts_zero(self):
        assert quality_curve(["ghost"], {}, {}) == [(0, 0, 0, 0)]

    def test_received_and_activity_are_read_apart(self):
        # u1 has received counts but no activity row, u2 the reverse.
        activities = {"u2": (4, 6)}
        curve = quality_curve(["u1", "u2"], activities, {"u1": [3, 5]})
        assert curve == [(0, 3, 5, 0), (6, 3, 5, 4)]

    def test_truncated_selection_is_a_prefix(self):
        activities = {f"u{i}": (i, 2 * i) for i in range(6)}
        users = [f"u{i}" for i in range(6)]
        received = {f"u{i}": [i, 3 * i] for i in range(6)}
        full = quality_curve(users, activities, received)
        half = quality_curve(users[:3], activities, received)
        assert len(full) == 6
        assert half == full[:3]

    def test_curves_are_monotone(self):
        g, activities = generate_synthetic(seed=21, n_users=40, n_edges=100)
        entries = compare_configs(g, activities, SWEEP, k=10)
        for entry in entries:
            series = list(zip(*entry.curve))
            assert len(series) == 4
            for column in series:
                assert all(a <= b for a, b in zip(column, column[1:]))


class TestReceivedTotals:
    def test_sums_each_source_over_its_out_edges(self):
        g = SocialGraph()
        g.add_edge("a", "b")
        add_count(g.mentions, g, "a", "b", 2)
        add_count(g.mentions, g, "a", "c", 3)
        add_count(g.retweets, g, "a", "c", 4)
        add_count(g.retweets, g, "b", "c", 1)
        add_count(g.mentions, g, "c", "a", 0)  # a zero count creates the edge only
        assert received_totals(g, g.users) == {"a": [5, 4], "b": [0, 1]}
        # Only the users asked for are summed, each over all its out-edges.
        assert received_totals(g, ["c", "b"]) == {"b": [0, 1]}
        assert received_totals(g, iter(["a"])) == {"a": [5, 4]}
        assert received_totals(g, []) == {}

    def test_curves_read_the_graph_counters(self):
        # Every seed's mentions and retweets are its out-edges' counts.
        g, activities = generate_synthetic(seed=28, n_users=60, n_edges=150)
        entries = compare_configs(g, activities, SWEEP, k=10)
        for entry in entries:
            mentions = retweets = 0
            for i, user in enumerate(entry.selection.users):
                mentions += sum(n for (u, _), n in g.mentions.items() if u == user)
                retweets += sum(n for (u, _), n in g.retweets.items() if u == user)
                assert entry.curve[i][1:3] == (mentions, retweets)
            assert entry.curve[-1][1] > 0


class TestCompareConfigs:
    def test_fixed_zero_alpha_selects_in_id_order(self):
        # Zero reliability zeroes every influence value, so every candidate
        # gains exactly 1 and the tie-break picks ids in ascending order.
        g, activities = generate_synthetic(seed=22, n_users=30, n_edges=80)
        (entry,) = compare_configs(
            g, activities, [ReliabilityConfig(0.0)], k=5
        )
        expected = sorted(g.users)[:5]
        assert entry.selection.users == expected
        follows = [activities[u][1] for u in expected]
        assert [row[0] for row in entry.curve] == [
            sum(follows[: i + 1]) for i in range(5)
        ]

    def test_identical_configs_give_identical_curves(self):
        g, activities = generate_synthetic(seed=23, n_users=40, n_edges=110)
        cfgs = [ReliabilityConfig(), ReliabilityConfig()]
        first, second = compare_configs(g, activities, cfgs, k=8)
        assert first.selection.users == second.selection.users
        assert first.curve == second.curve

    def test_k_is_honored(self):
        g, activities = generate_synthetic(seed=24, n_users=60, n_edges=150)
        entries = compare_configs(g, activities, SWEEP, k=12)
        for entry in entries:
            assert len(entry.selection) == 12
            assert len(entry.curve) == 12

    def test_k_above_the_user_count_ranks_every_user(self):
        g, activities = generate_synthetic(seed=24, n_users=10, n_edges=20)
        entries = compare_configs(g, activities, SWEEP, k=25)
        assert len(entries) == len(SWEEP)
        for entry in entries:
            assert len(entry.selection) == len(g.users)
            assert len(entry.curve) == len(g.users)
            # Every user is ranked, so the last row sums every user's statistics.
            assert entry.curve[-1] == (
                sum(followers for _, followers in activities.values()),
                sum(g.mentions.values()),
                sum(g.retweets.values()),
                sum(tweets for tweets, _ in activities.values()),
            )

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
        add_count(g.mentions, g, "a", "b", 5)
        add_count(g.retweets, g, "c", "d", 3)
        with pytest.raises(EvaluationError) as err:
            compare_configs(
                g, {}, [ReliabilityConfig(1.0)], k=2
            )
        assert "fixed:1" in str(err.value)

    @settings(max_examples=30, deadline=None)
    @given(graph=synthetic_graphs())
    def test_sweep_equals_single_config_runs(self, graph):
        # The sweep shares one indicator prefix across configs; each entry
        # must still equal a run of its config alone.
        g, activities = graph
        cfgs = [
            ReliabilityConfig(0.2),
            ReliabilityConfig(lam=5.0),
            ReliabilityConfig(lam=2.0),
        ]
        entries = compare_configs(g, activities, cfgs, k=4)
        singles = [compare_configs(g, activities, [cfg], k=4)[0] for cfg in cfgs]
        assert entries == singles

    def test_deterministic(self):
        g, activities = generate_synthetic(seed=26, n_users=40, n_edges=100)
        r1 = compare_configs(g, activities, SWEEP, k=6)
        r2 = compare_configs(g, activities, SWEEP, k=6)
        assert [e.selection.users for e in r1] == [e.selection.users for e in r2]
        assert [e.curve for e in r1] == [e.curve for e in r2]


# Four configs whose fused records carry their alpha as every reliability.
FIXED = [ReliabilityConfig(alpha) for alpha in (0.1, 0.2, 0.3, 0.4)]


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
        add_count(g.mentions, g, "a", "b", 5)
        add_count(g.retweets, g, "c", "d", 3)
        plant_failures(monkeypatch, {0.1})
        configs = [ReliabilityConfig(0.1), ReliabilityConfig(1.0)]
        with pytest.raises(EvaluationError, match="^config fixed:0.1: planted"):
            compare_configs(g, {}, configs, k=2)
        with pytest.raises(EvaluationError, match="^config fixed:1: "):
            compare_configs(g, {}, configs[::-1], k=2)

    def test_deep_sweep_entry_equals_its_one_config_sweep(self):
        g, activities = generate_synthetic(seed=29, n_users=2000, n_edges=4000)
        entries = compare_configs(g, activities, SWEEP, k=1500)
        assert [len(entry.selection) for entry in entries] == [1500] * 3
        assert entries[1] == compare_configs(g, activities, SWEEP[1:2], k=1500)[0]
