"""BBA construction, distance-based reliability, and per-edge fusion."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evimax import fusion
from evimax.belief import MassFunction, combine_dempster, jousselme_distance
from evimax.fusion import (
    EdgeBBASet,
    FusionError,
    OutOfRangeError,
    ReliabilityConfig,
    TooFewIndicatorsError,
    _bounds,
    average_distances,
    edge_bba_sets,
    estimate_reliabilities,
    fuse_all,
    fuse_configs,
    fuse_edge,
    indicator_bba,
    reliability_from_distance,
)
from evimax.graph import INDICATOR_NAMES, SocialGraph, raw_indicators
from evimax.synthetic import generate_synthetic
from tests.helpers import bbas, synthetic_graphs
from tests.oracles import fused, indicator_map

TOL = 1e-9
ESTIMATED = ReliabilityConfig.estimated(lam=5.0)


def committed(p_influencer: float) -> MassFunction:
    return MassFunction(p_influencer, 1.0 - p_influencer, 0.0)


class TestReliabilityConfig:
    def test_defaults(self):
        assert ESTIMATED.alpha is None
        assert ESTIMATED.lam == 5.0
        assert ESTIMATED.name == "estimated"

    def test_fixed_name(self):
        assert ReliabilityConfig.fixed(0.2).name == "fixed:0.2"
        assert ReliabilityConfig.fixed(0.0).name == "fixed:0"
        # A zero alpha is stored as +0.0, whatever its sign.
        assert ReliabilityConfig.fixed(-0.0).name == "fixed:0"
        assert ReliabilityConfig.fixed(1e-07).name == "fixed:1e-07"
        # Past :g's 6 significant digits the name keeps every digit needed.
        assert ReliabilityConfig.fixed(0.1234567).name == "fixed:0.1234567"
        assert ReliabilityConfig.fixed(0.1234568).name == "fixed:0.1234568"

    @given(st.floats(0.0, 1.0))
    @example(0.1234567)
    @example(0.30000000000000004)
    @example(5e-324)
    @example(-0.0)
    def test_fixed_name_parses_back_to_its_alpha(self, alpha):
        assert ReliabilityConfig.parse(ReliabilityConfig.fixed(alpha).name).alpha == alpha

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0),
            dict(lam=-3.0),
            dict(alpha=1.5),
            dict(alpha=-0.1),
            dict(lam=float("nan")),
            dict(lam=float("inf")),
            # A NaN alpha is set, not estimated.
            dict(alpha=float("nan")),
            dict(alpha=float("inf")),
            # An estimated config needs a lambda, and a fixed one checks a given one.
            dict(lam=None),
            dict(alpha=0.2, lam=0.0),
            dict(alpha=0.2, lam=float("nan")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ReliabilityConfig(**kwargs)

    def test_fixed_holds_no_lambda(self):
        cfg = ReliabilityConfig.fixed(0.2)
        assert cfg.lam is None
        assert ReliabilityConfig(alpha=0.2, lam=3.0) == cfg
        assert ReliabilityConfig(alpha=0.2, lam=None) == cfg
        assert ReliabilityConfig.estimated(lam=3.0) != ESTIMATED

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, exclude_min=True, allow_infinity=False) | st.sampled_from([5.0, 1e-300]),
    )
    def test_parse_reads_a_fixed_name_back_under_any_lambda(self, alpha, lam):
        cfg = ReliabilityConfig.fixed(alpha)
        assert ReliabilityConfig.parse(cfg.name, lam=lam) == cfg

    def test_parse_checks_lambda_for_a_fixed_token(self):
        with pytest.raises(ValueError, match="lambda must be finite and positive, got 0.0"):
            ReliabilityConfig.parse("fixed:0.2", lam=0.0)

    def test_parse(self):
        assert ReliabilityConfig.parse("estimated") == ESTIMATED
        assert ReliabilityConfig.parse("fixed:0.2") == ReliabilityConfig.fixed(0.2)
        assert ReliabilityConfig.parse(" fixed:0 ") == ReliabilityConfig.fixed(0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig.parse("0.2")
        with pytest.raises(ValueError):
            ReliabilityConfig.parse("fixed:much")


class TestIndicatorBBA:
    def test_at_maximum(self):
        m = indicator_bba(10.0, 0.0, 10.0)
        assert m == MassFunction(1.0, 0.0, 0.0)

    def test_at_minimum(self):
        m = indicator_bba(0.0, 0.0, 10.0)
        assert m == MassFunction(0.0, 1.0, 0.0)

    def test_interior_value(self):
        m = indicator_bba(3.0, 0.0, 10.0)
        assert m.influencer == pytest.approx(0.3, abs=1e-12)
        assert m.passive == pytest.approx(0.7, abs=1e-12)
        assert m.omega == 0.0

    def test_degenerate_range_is_vacuous(self):
        assert indicator_bba(4.0, 4.0, 4.0) == MassFunction.vacuous()

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            indicator_bba(11.0, 0.0, 10.0)
        with pytest.raises(OutOfRangeError):
            indicator_bba(-1.0, 0.0, 10.0)


class TestNormalizationStats:
    """Per-indicator normalization bounds, as built by ``_bounds``."""

    def test_from_values(self):
        bounds = _bounds([(1.0, 5.0), (3.0, 2.0)])
        assert bounds == ((1.0, 3.0), (2.0, 5.0))

    def test_empty(self):
        assert _bounds([]) == ()


class TestEstimateReliabilities:
    def test_identical_bbas_are_fully_reliable(self):
        m = committed(0.4)
        alphas = estimate_reliabilities((m, m, m), ESTIMATED)
        assert alphas == (1.0, 1.0, 1.0)

    def test_maximal_distance_means_zero_reliability(self):
        # Two opposed singletons are at distance 1, so each gets alpha 0.
        alphas = estimate_reliabilities((committed(1.0), committed(0.0)), ESTIMATED)
        assert alphas[0] == pytest.approx(0.0, abs=1e-12)
        assert alphas[1] == pytest.approx(0.0, abs=1e-12)

    def test_worked_average_distance(self):
        # Committed BBAs at influencer masses 0.5 / 0.7 / 0.9 sit at
        # distances 0.2 and 0.4 from the first, so C_1 = 0.3 and
        # alpha_1 = (1 - 0.3**5)**(1/5).
        trio = (committed(0.5), committed(0.7), committed(0.9))
        assert jousselme_distance(trio[0], trio[1]) == pytest.approx(0.2, abs=1e-12)
        assert jousselme_distance(trio[0], trio[2]) == pytest.approx(0.4, abs=1e-12)
        assert average_distances(trio)[0] == pytest.approx(0.3, abs=1e-12)
        alphas = estimate_reliabilities(trio, ESTIMATED)
        assert alphas[0] == pytest.approx(0.9995135269180787, abs=1e-6)

    def test_too_few_indicators(self):
        with pytest.raises(TooFewIndicatorsError):
            estimate_reliabilities((committed(0.5),), ESTIMATED)

    def test_fixed_mode_is_constant(self):
        cfg = ReliabilityConfig.fixed(0.2)
        alphas = estimate_reliabilities((committed(0.1),), cfg)
        assert alphas == (0.2,)
        alphas = estimate_reliabilities((committed(0.1), committed(0.9)), cfg)
        assert alphas == (0.2, 0.2)

    def test_alpha_strictly_decreasing_in_distance(self):
        grid = [i / 50 for i in range(1, 50)]
        values = [reliability_from_distance(c, 5.0) for c in grid]
        for earlier, later in zip(values, values[1:]):
            assert earlier > later
        assert reliability_from_distance(0.0, 5.0) == 1.0
        assert reliability_from_distance(1.0, 5.0) == 0.0

    def test_reliability_order_mirrors_distance_order(self):
        rng = random.Random(99)
        for _ in range(200):
            trio = tuple(committed(rng.random()) for _ in range(3))
            cs = average_distances(trio)
            alphas = estimate_reliabilities(trio, ESTIMATED)
            for j, k in itertools.permutations(range(3), 2):
                if cs[j] < cs[k]:
                    assert alphas[j] > alphas[k]


class TestFuseEdge:
    def test_single_source_identity(self):
        ebs = EdgeBBASet((0.4,), (committed(0.4),), (1.0,))
        assert fuse_edge(ebs).inf == pytest.approx(0.4, abs=1e-12)

    def test_all_zero_reliability_is_vacuous(self):
        ebs = EdgeBBASet(
            (0.4, 0.9),
            (committed(0.4), committed(0.9)),
            (0.0, 0.0),
        )
        result = fuse_edge(ebs)
        assert fused(result) == MassFunction.vacuous()
        assert result.inf == 0.0

    def test_worked_two_indicator_fusion(self):
        # K = 0.6*0.5 + 0.4*0.5 = 0.5; influence mass = 0.3/0.5 = 0.6.
        ebs = EdgeBBASet(
            (0.6, 0.5),
            (committed(0.6), committed(0.5)),
            (1.0, 1.0),
        )
        assert fuse_edge(ebs).inf == pytest.approx(0.6, abs=1e-6)

    def test_near_total_conflict_fails_the_mass_sum_check(self):
        # Alphas within about 1e-8 of 1 on contradicting committed BBAs leave
        # too few digits in Dempster's normalizer for the masses to sum to 1.
        ebs = EdgeBBASet(
            (0.0, 1.0, 0.0),
            (committed(0.0), committed(1.0), committed(0.0)),
            (0.9999986018879158, 0.9999999892243477, 0.9999999892243477),
        )
        with pytest.raises(ValueError) as err:
            fuse_edge(ebs)
        assert str(err.value) == "masses must sum to 1, got 1.0000000031054714"

    @given(data=st.lists(bbas(max_commitment=0.95), min_size=2, max_size=5))
    def test_permutation_invariant(self, data):
        reference = None
        for perm in itertools.permutations(data):
            perm = tuple(perm)
            ebs = EdgeBBASet(
                tuple(0.0 for _ in perm),
                perm,
                estimate_reliabilities(perm, ESTIMATED),
            )
            inf = fuse_edge(ebs).inf
            if reference is None:
                reference = inf
            else:
                assert inf == pytest.approx(reference, abs=TOL)

    @given(data=st.lists(bbas(max_commitment=0.95), min_size=2, max_size=5))
    def test_estimated_fusion_stays_in_unit_interval(self, data):
        bba_tuple = tuple(data)
        ebs = EdgeBBASet(
            tuple(0.0 for _ in bba_tuple),
            bba_tuple,
            estimate_reliabilities(bba_tuple, ESTIMATED),
        )
        assert -TOL <= fuse_edge(ebs).inf <= 1.0 + TOL

    @given(data=st.lists(bbas(max_commitment=0.9), min_size=2, max_size=4))
    def test_full_reliability_equals_plain_combination(self, data):
        """Fixed alpha=1 must reproduce undiscounted fusion exactly."""
        bba_tuple = tuple(data)
        ebs = EdgeBBASet(
            tuple(0.0 for _ in bba_tuple),
            bba_tuple,
            estimate_reliabilities(bba_tuple, ReliabilityConfig.fixed(1.0)),
        )
        expected = bba_tuple[0]
        for m in bba_tuple[1:]:
            expected = combine_dempster(expected, m)
        assert fused(fuse_edge(ebs)) == expected


def two_edge_graph() -> SocialGraph:
    """Two disjoint edges with opposed activity extremes."""
    g = SocialGraph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    g.add_mentions("a", "b", 5)
    g.add_retweets("c", "d", 3)
    return g


class TestFuseAll:
    def test_single_edge_graph_has_no_evidence(self):
        # Every indicator is both min and max over a single edge, so all
        # BBAs are vacuous and the fused influence is zero.
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_mentions("a", "b", 9)
        result = dict(fuse_all(g, ESTIMATED).items())
        assert result[("a", "b")].inf == 0.0

    def test_covers_every_edge(self):
        g, _ = generate_synthetic(seed=8, n_users=40, n_edges=100)
        result = dict(fuse_all(g, ESTIMATED).items())
        assert set(result) == set(g.edges())

    def test_fixed_zero_alpha_kills_all_influence(self):
        g, _ = generate_synthetic(seed=8, n_users=40, n_edges=100)
        result = fuse_all(g, ReliabilityConfig.fixed(0.0))
        assert all(r.inf == 0.0 for _, r in result.items())

    def test_influence_in_unit_interval(self):
        g, _ = generate_synthetic(seed=12, n_users=60, n_edges=180)
        for cfg in (ESTIMATED, ReliabilityConfig.fixed(0.2), ReliabilityConfig.fixed(0.7)):
            for _, r in fuse_all(g, cfg).items():
                assert -TOL <= r.inf <= 1.0 + TOL

    def test_fully_reliable_contradiction_is_an_error(self):
        # With alpha fixed at 1, the mention and retweet indicators fully
        # contradict on both edges of the two-edge graph.
        with pytest.raises(FusionError) as err:
            fuse_all(two_edge_graph(), ReliabilityConfig.fixed(1.0))
        assert "->" in str(err.value)

    def test_estimated_mode_defuses_the_same_contradiction(self):
        result = fuse_all(two_edge_graph(), ESTIMATED)
        assert len(result) == 2
        for _, r in result.items():
            assert -TOL <= r.inf <= 1.0 + TOL

    def test_deterministic(self):
        g, _ = generate_synthetic(seed=15, n_users=50, n_edges=140)
        first = fuse_all(g, ESTIMATED)
        second = fuse_all(g, ESTIMATED)
        assert [(e, r.inf) for e, r in first.items()] == [
            (e, r.inf) for e, r in second.items()
        ]

    def test_empty_graph(self):
        assert dict(fuse_all(SocialGraph(), ESTIMATED).items()) == {}


class TestDiagnosticsRecords:
    def test_edge_bba_sets_expose_normalized_weights(self):
        g = two_edge_graph()
        sets = dict(edge_bba_sets(g, ESTIMATED))
        # Mentions: 5 on (a,b) and 0 on (c,d) normalize to 1 and 0.
        assert sets[("a", "b")].weights[1] == pytest.approx(1.0)
        assert sets[("c", "d")].weights[1] == pytest.approx(0.0)
        # Degenerate common-neighbors indicator reports weight 0.
        assert sets[("a", "b")].weights[0] == 0.0

    @pytest.mark.parametrize(
        "graph_args",
        [
            dict(seed=21, n_users=80, n_edges=240),
            # No activity: mentions and retweets are constant over the edges.
            dict(seed=22, n_users=60, n_edges=70, activity_intensity=0.0),
        ],
    )
    @pytest.mark.parametrize(
        "cfg",
        [
            ReliabilityConfig.fixed(0.2),
            ESTIMATED,
        ],
        ids=lambda cfg: cfg.name,
    )
    def test_fuse_all_records_match_per_edge_reference(self, graph_args, cfg):
        g, _ = generate_synthetic(**graph_args)
        values = indicator_map(g)
        n = len(INDICATOR_NAMES)
        lows = [min(vec[j] for vec in values.values()) for j in range(n)]
        highs = [max(vec[j] for vec in values.values()) for j in range(n)]
        bbas = {
            edge: tuple(indicator_bba(vec[j], lows[j], highs[j]) for j in range(n))
            for edge, vec in values.items()
        }

        records = dict(fuse_all(g, cfg).items())
        assert list(records) == list(values)
        for edge, vec in values.items():
            record = records[edge]
            assert record.weights == tuple(
                (vec[j] - lows[j]) / (highs[j] - lows[j]) if highs[j] > lows[j] else 0.0
                for j in range(n)
            )
            alphas = estimate_reliabilities(bbas[edge], cfg)
            assert record.reliabilities == alphas
            reference = fuse_edge(EdgeBBASet(record.weights, bbas[edge], alphas))
            assert record == reference
            assert fused(record) == fused(reference)
            assert record.inf == reference.inf


@st.composite
def reliability_configs(draw):
    """Fixed alphas at and near the endpoints, and the estimate with random lambda."""
    if draw(st.booleans()):
        alpha = draw(
            st.sampled_from([0.0, 1.0, 1.0 - 1e-13]) | st.floats(0.0, 1.0)
        )
        return ReliabilityConfig.fixed(alpha)
    return ReliabilityConfig.estimated(lam=draw(st.floats(0.1, 20.0)))


def reference_fusion(g, cfg):
    """``edge_bba_sets`` + ``fuse_edge``: the records, or the edge's error message.

    Besides total conflict, a combination can fail ``MassFunction``'s sum
    check when near-total conflict leaves too few digits in its normalizer.
    """
    records = {}
    for edge, ebs in edge_bba_sets(g, cfg):
        try:
            records[edge] = fuse_edge(ebs)
        except ValueError as exc:  # TotalConflictError is a ValueError too
            return None, f"edge {edge[0]!r} -> {edge[1]!r}: {exc}"
    return records, None


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(graph=synthetic_graphs(), cfg=reliability_configs())
    # Total conflict at alpha 1 and just below it.
    @example(graph=generate_synthetic(0, 5, 15, 0.3), cfg=ReliabilityConfig.fixed(1.0))
    @example(
        graph=generate_synthetic(0, 5, 15, 0.3), cfg=ReliabilityConfig.fixed(1.0 - 1e-13)
    )
    def test_fuse_all_equals_reference_exactly(self, graph, cfg):
        g, _ = graph
        expected, error = reference_fusion(g, cfg)
        if error is not None:
            with pytest.raises(FusionError) as err:
                fuse_all(g, cfg)
            assert str(err.value) == error
            return
        records = dict(fuse_all(g, cfg).items())
        assert list(records) == list(expected)
        for edge, record in records.items():
            reference = expected[edge]
            assert record.weights == reference.weights
            assert record.reliabilities == reference.reliabilities
            assert fused(record) == fused(reference)
            assert record.inf == reference.inf


CACHE_CONFIGS = [
    ReliabilityConfig.fixed(0.0),
    ReliabilityConfig.fixed(0.2),
    ReliabilityConfig.fixed(1.0),
    ESTIMATED,
]


def assert_records_equal(fused_edges, expected):
    records = dict(fused_edges.items())
    assert list(records) == list(expected)
    for edge, record in records.items():
        reference = expected[edge]
        assert record == reference
        assert record.weights == reference.weights
        assert record.reliabilities == reference.reliabilities
        assert fused(record) == fused(reference)
        assert record.inf == reference.inf


class TestPerVectorCache:
    """Edges sharing an indicator vector are fused once and still match per edge."""

    @pytest.mark.parametrize(
        "graph_args",
        [
            (31, 300, 600, 1.0),
            (32, 400, 800, 0.3),
            # No activity: only common neighbours vary, so alpha 1 fuses too.
            (35, 300, 700, 0.0),
        ],
    )
    def test_repeated_vectors_match_per_edge_reference(self, graph_args):
        g, _ = generate_synthetic(*graph_args)
        values = indicator_map(g)
        distinct = set(values.values())
        assert len(values) >= 20 * len(distinct)
        swept = fuse_configs(g, CACHE_CONFIGS)
        for i, cfg in enumerate(CACHE_CONFIGS):
            expected, error = reference_fusion(g, cfg)
            if error is None:
                assert list(expected) == list(values)
                assert_records_equal(fuse_all(g, cfg), expected)
                records = next(swept)
                assert_records_equal(records, expected)
                # Records of one vector share their tuples.
                assert len({id(r.weights) for _, r in records.items()}) == len(distinct)
            else:
                with pytest.raises(FusionError) as err:
                    fuse_all(g, cfg)
                assert str(err.value) == error
                with pytest.raises(FusionError) as err:
                    next(swept)
                assert str(err.value) == error
                # A sweep that raised is finished; resume after this config.
                swept = fuse_configs(g, CACHE_CONFIGS[i + 1:])

    def test_conflict_names_first_edge_of_shared_vector(self):
        # (a, b) and (e, f) share the vector (0, 5, 0), in total conflict at
        # alpha 1 (most mentions, fewest retweets); (c, d) conflicts the other
        # way and its vector sorts first.  The run stops at (a, b), the first
        # conflicting edge in edge order.
        g = SocialGraph()
        g.add_edge("x", "y")
        g.add_mentions("a", "b", 5)
        g.add_retweets("c", "d", 3)
        g.add_mentions("e", "f", 5)
        values = indicator_map(g)
        assert values[("a", "b")] == values[("e", "f")] == (0.0, 5.0, 0.0)
        cfg = ReliabilityConfig.fixed(1.0)
        _, error = reference_fusion(g, cfg)
        assert error == "edge 'a' -> 'b': total conflict between sources (K=1.0)"
        with pytest.raises(FusionError) as err:
            fuse_all(g, cfg)
        assert str(err.value) == error
        sweep = fuse_configs(g, [ReliabilityConfig.fixed(0.2), cfg])
        assert len(next(sweep)) == 4
        with pytest.raises(FusionError) as err:
            next(sweep)
        assert str(err.value) == error


class TestSharedRecords:
    """Every edge with the same indicator vector maps to one frozen record."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ReliabilityConfig.fixed(0.0),
            ReliabilityConfig.fixed(0.2),
            ESTIMATED,
        ],
        ids=lambda cfg: cfg.name,
    )
    def test_one_record_per_distinct_vector(self, cfg):
        g, _ = generate_synthetic(31, 300, 600, 1.0)
        values = indicator_map(g)
        records = dict(fuse_all(g, cfg).items())
        assert len({id(r) for r in records.values()}) == len(set(values.values()))
        first = {}
        for edge, vec in values.items():
            assert records[edge] is first.setdefault(vec, records[edge])

    def test_records_are_frozen(self):
        g, _ = generate_synthetic(31, 300, 600, 1.0)
        _, record = next(iter(fuse_all(g, ESTIMATED).items()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.inf = 0.5


class TestFusesEachDistinctVectorOnce:
    """``fuse_edge`` is the production path, and it runs once per distinct vector."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(fusion, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fusion, name, counting)
        return calls

    def test_fuse_configs_calls_fuse_edge_once_per_vector_and_config(self, monkeypatch):
        g, _ = generate_synthetic(31, 300, 600, 1.0)
        distinct, _ = raw_indicators(g)
        configs = [
            ReliabilityConfig.fixed(0.2),
            ESTIMATED,
            ReliabilityConfig.estimated(lam=2.0),
        ]
        calls = self.count_calls(monkeypatch, "fuse_edge")
        sweeps = [len(records) for records in fuse_configs(g, configs)]
        assert sweeps == [g.num_edges()] * 3
        assert len(calls) == 3 * len(distinct)
