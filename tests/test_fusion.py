"""BBA construction, distance-based reliability, and per-edge fusion."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evimax import fusion
from evimax.belief import MassFunction, combine_dempster, jousselme_distance
from evimax.fusion import (
    DEFAULT_LAMBDA,
    FusionError,
    ReliabilityConfig,
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
from evimax.spread import InfluenceField
from evimax.synthetic import generate_synthetic
from tests.helpers import bbas, synthetic_graph, synthetic_graphs
from tests.oracles import (
    add_count,
    fixed_alpha_inf_exact,
    fused,
    indicator_map,
    num_edges,
)

TOL = 1e-9
ESTIMATED = ReliabilityConfig(lam=5.0)


def committed(p_influencer: float) -> MassFunction:
    return MassFunction(p_influencer, 1.0 - p_influencer, 0.0)


class TestReliabilityConfig:
    def test_defaults(self):
        assert ESTIMATED.alpha is None
        assert ESTIMATED.lam == 5.0
        assert ESTIMATED.name == "estimated"

    def test_bare_constructor_is_the_default_estimated_config(self):
        cfg = ReliabilityConfig()
        assert cfg.alpha is None
        assert cfg.lam == DEFAULT_LAMBDA == 5.0
        assert cfg.name == "estimated"
        assert cfg == ReliabilityConfig.parse("estimated")

    def test_fixed_name(self):
        assert ReliabilityConfig(0.2).name == "fixed:0.2"
        assert ReliabilityConfig(0.0).name == "fixed:0"
        # A zero alpha is stored as +0.0, whatever its sign.
        assert ReliabilityConfig(-0.0).name == "fixed:0"
        assert ReliabilityConfig(1e-07).name == "fixed:1e-07"
        # Past :g's 6 significant digits the name keeps every digit needed.
        assert ReliabilityConfig(0.1234567).name == "fixed:0.1234567"
        assert ReliabilityConfig(0.1234568).name == "fixed:0.1234568"

    @given(st.floats(0.0, 1.0))
    @example(0.1234567)
    @example(0.30000000000000004)
    @example(5e-324)
    @example(-0.0)
    def test_fixed_name_parses_back_to_its_alpha(self, alpha):
        assert ReliabilityConfig.parse(ReliabilityConfig(alpha).name).alpha == alpha

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
        cfg = ReliabilityConfig(0.2)
        assert cfg.lam is None
        assert ReliabilityConfig(alpha=0.2, lam=3.0) == cfg
        assert ReliabilityConfig(alpha=0.2, lam=None) == cfg
        assert ReliabilityConfig(lam=3.0) != ESTIMATED

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, exclude_min=True, allow_infinity=False) | st.sampled_from([5.0, 1e-300]),
    )
    def test_parse_reads_a_fixed_name_back_under_any_lambda(self, alpha, lam):
        cfg = ReliabilityConfig(alpha)
        assert ReliabilityConfig.parse(cfg.name, lam=lam) == cfg

    def test_parse_checks_lambda_for_a_fixed_token(self):
        with pytest.raises(ValueError, match="lambda must be finite and positive, got 0.0"):
            ReliabilityConfig.parse("fixed:0.2", lam=0.0)

    def test_parse(self):
        assert ReliabilityConfig.parse("estimated") == ESTIMATED
        assert ReliabilityConfig.parse("fixed:0.2") == ReliabilityConfig(0.2)
        assert ReliabilityConfig.parse(" fixed:0 ") == ReliabilityConfig(0.0)
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
        with pytest.raises(
            ValueError, match=r"^value 11\.0 outside normalization range \[0\.0, 10\.0\]$"
        ):
            indicator_bba(11.0, 0.0, 10.0)
        with pytest.raises(
            ValueError, match=r"^value -1\.0 outside normalization range \[0\.0, 10\.0\]$"
        ):
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
        with pytest.raises(
            ValueError, match="^need at least 2 indicators to estimate reliability, got 1$"
        ):
            estimate_reliabilities((committed(0.5),), ESTIMATED)

    def test_fixed_mode_is_constant(self):
        cfg = ReliabilityConfig(0.2)
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
        assert fuse_edge((committed(0.4),), (1.0,)).inf == pytest.approx(0.4, abs=1e-12)

    def test_all_zero_reliability_is_vacuous(self):
        result = fuse_edge((committed(0.4), committed(0.9)), (0.0, 0.0))
        assert fused(result) == MassFunction.vacuous()
        assert result.inf == 0.0

    def test_worked_two_indicator_fusion(self):
        # K = 0.6*0.5 + 0.4*0.5 = 0.5; influence mass = 0.3/0.5 = 0.6.
        result = fuse_edge((committed(0.6), committed(0.5)), (1.0, 1.0))
        assert result.inf == pytest.approx(0.6, abs=1e-6)

    def test_near_total_conflict_fails_the_mass_sum_check(self):
        # Alphas within about 1e-8 of 1 on contradicting committed BBAs leave
        # too few digits in Dempster's normalizer for the masses to sum to 1.
        bba_tuple = (committed(0.0), committed(1.0), committed(0.0))
        alphas = (0.9999986018879158, 0.9999999892243477, 0.9999999892243477)
        with pytest.raises(ValueError) as err:
            fuse_edge(bba_tuple, alphas)
        assert str(err.value) == "masses must sum to 1, got 1.0000000031054714"

    def test_fused_mass_rounded_above_one_is_stored_as_one(self):
        # Dempster's normalization rounds this inf to 1.0000000000293647,
        # within the sum check's tolerance; it is stored as 1.0, so the
        # user-built field accepts it as a weight.
        cfg = ReliabilityConfig(alpha=0.9999999986985055)
        record = fused_vector((1, 10**6, 10**6), ((0, 10**6),) * 3, cfg)
        assert record.inf == 1.0
        field = InfluenceField("ab", {("a", "b"): record.inf})
        assert field.seed_contributions("a") == {"b": 2.0}

    @given(
        inputs=st.lists(
            st.tuples(bbas(max_commitment=0.95), st.floats(0.0, 1.0)), min_size=1, max_size=5
        )
    )
    def test_weights_are_the_bbas_influencer_masses(self, inputs):
        bba_tuple, alphas = map(tuple, zip(*inputs))
        record = fuse_edge(bba_tuple, alphas)
        assert record.weights == tuple(m.influencer for m in bba_tuple)
        assert record.reliabilities == alphas

    @given(data=st.lists(bbas(max_commitment=0.95), min_size=2, max_size=5))
    def test_permutation_invariant(self, data):
        reference = None
        for perm in itertools.permutations(data):
            perm = tuple(perm)
            inf = fuse_edge(perm, estimate_reliabilities(perm, ESTIMATED)).inf
            if reference is None:
                reference = inf
            else:
                assert inf == pytest.approx(reference, abs=TOL)

    @given(data=st.lists(bbas(max_commitment=0.95), min_size=2, max_size=5))
    def test_estimated_fusion_stays_in_unit_interval(self, data):
        bba_tuple = tuple(data)
        alphas = estimate_reliabilities(bba_tuple, ESTIMATED)
        assert -TOL <= fuse_edge(bba_tuple, alphas).inf <= 1.0 + TOL

    @given(data=st.lists(bbas(max_commitment=0.9), min_size=2, max_size=4))
    def test_full_reliability_equals_plain_combination(self, data):
        """Fixed alpha=1 must reproduce undiscounted fusion exactly."""
        bba_tuple = tuple(data)
        alphas = estimate_reliabilities(bba_tuple, ReliabilityConfig(1.0))
        expected = bba_tuple[0]
        for m in bba_tuple[1:]:
            expected = combine_dempster(expected, m)
        assert fused(fuse_edge(bba_tuple, alphas)) == expected


def fused_vector(vec, bounds, cfg):
    """The fused record of a raw indicator vector under the given bounds."""
    return fuse_edge(*fusion._edge_inputs(vec, bounds, cfg))


def stray(record) -> float:
    """How far a fused record's three masses are from summing to 1."""
    return abs(record.inf + record.passive + record.omega - 1.0)


@st.composite
def count_steps(draw):
    """Bounds up to 10**6, a vector within them, and that vector with one
    indicator one count higher, still within its bound."""
    bounds = []
    for _ in INDICATOR_NAMES:
        low = draw(st.integers(0, 10**6))
        bounds.append((low, draw(st.integers(low, 10**6))))
    vec = [draw(st.integers(low, high)) for low, high in bounds]
    room = [i for i, (x, (_, high)) in enumerate(zip(vec, bounds)) if x < high]
    assume(room)
    i = draw(st.sampled_from(room))
    up = list(vec)
    up[i] += 1
    return tuple(bounds), tuple(vec), tuple(up)


class TestEvidenceMonotonicity:
    """What one more count on an indicator does to the fused ``inf``."""

    # Both steps below fuse near total conflict: alphas within 1e-8 of 1 and
    # indicators at opposite ends of their bounds.
    NEAR_CONFLICT_STEPS = [
        (((0, 10**6),) * 3, (1, 85957, 10**6), (1, 85958, 10**6),
         0.9999999999999996, 0.999999996122775, 0.9999999948923801),
        (((0, 10),) * 3, (10, 4, 10), (10, 5, 10),
         0.9999999916138633, 1.0, 0.9999999999999999),
    ]

    @settings(max_examples=300, deadline=None)
    @example(step=NEAR_CONFLICT_STEPS[0][:3], alpha=NEAR_CONFLICT_STEPS[0][3])
    @example(step=NEAR_CONFLICT_STEPS[1][:3], alpha=NEAR_CONFLICT_STEPS[1][3])
    @given(step=count_steps(), alpha=st.floats(0.0, 1.0, exclude_max=True))
    def test_one_more_count_never_lowers_fixed_alpha_inf(self, step, alpha):
        """Exactly, the fused ``inf`` is nondecreasing in each count under a
        fixed alpha below 1.  In floats, Dempster's numerators add only
        nonnegative terms, so each fused mass is its exact value times a
        factor shared by the three masses (the normalizer's error, which their
        sum shows) and a few roundings of its own: a step can lower ``inf``
        by at most how far the two records' sums stray from 1, plus 2**-49.
        """
        bounds, vec, up = step
        cfg = ReliabilityConfig(alpha)
        try:
            before = fused_vector(vec, bounds, cfg)
            after = fused_vector(up, bounds, cfg)
        except ValueError:  # total conflict, or the mass-sum check
            assume(False)
        assert 0.0 <= before.inf <= 1.0 and 0.0 <= after.inf <= 1.0
        assert after.inf >= before.inf - (stray(before) + stray(after) + 2.0**-49)

    @pytest.mark.parametrize("bounds, vec, up, alpha, inf_before, inf_after", NEAR_CONFLICT_STEPS)
    def test_near_total_conflict_can_lower_inf_within_the_mass_sum_stray(
        self, bounds, vec, up, alpha, inf_before, inf_after
    ):
        cfg = ReliabilityConfig(alpha)
        before = fused_vector(vec, bounds, cfg)
        after = fused_vector(up, bounds, cfg)
        assert (before.inf, after.inf) == (inf_before, inf_after)
        assert 0.0 < before.inf - after.inf <= stray(before) + stray(after) + 2.0**-49
        # In exact arithmetic the step raises inf.
        exact = [fixed_alpha_inf_exact(v, bounds, alpha) for v in (vec, up)]
        assert exact[0] < exact[1]

    def test_estimated_reliability_can_discount_the_evidence_away(self):
        """Documented behaviour, not a bug: under ``estimated`` the indicator
        farthest from the others is discounted, and at (0, 4, 0) that is the
        one carrying the evidence; one more mention makes it fully committed
        and its reliability 0, so the edge loses all its influence."""
        bounds = ((0, 5), (0, 5), (0, 4))
        cfg = ReliabilityConfig(lam=1.0)
        before = fused_vector((0, 4, 0), bounds, cfg)
        after = fused_vector((0, 5, 0), bounds, cfg)
        assert round(before.inf, 6) == 0.029575
        assert after.inf == 0.0
        assert [round(a, 12) for a in before.reliabilities] == [0.6, 0.2, 0.6]
        assert after.reliabilities == (0.5, 0.0, 0.5)


def two_edge_graph() -> SocialGraph:
    """Two disjoint edges with opposed activity extremes."""
    g = SocialGraph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    add_count(g.mentions, g, "a", "b", 5)
    add_count(g.retweets, g, "c", "d", 3)
    return g


class TestFuseAll:
    def test_single_edge_graph_has_no_evidence(self):
        # Every indicator is both min and max over a single edge, so all
        # BBAs are vacuous and the fused influence is zero.
        g = SocialGraph()
        g.add_edge("a", "b")
        add_count(g.mentions, g, "a", "b", 9)
        result = fuse_all(g, ESTIMATED)
        assert dict(result.per_edge(result.records))[("a", "b")].inf == 0.0

    def test_covers_every_edge(self):
        g, _ = generate_synthetic(seed=8, n_users=40, n_edges=100)
        result = fuse_all(g, ESTIMATED)
        assert set(dict(result.per_edge(result.records))) == set(g.edges())

    def test_fixed_zero_alpha_kills_all_influence(self):
        g, _ = generate_synthetic(seed=8, n_users=40, n_edges=100)
        result = fuse_all(g, ReliabilityConfig(0.0))
        assert all(r.inf == 0.0 for _, r in result.per_edge(result.records))

    def test_influence_in_unit_interval(self):
        g, _ = generate_synthetic(seed=12, n_users=60, n_edges=180)
        for cfg in (ESTIMATED, ReliabilityConfig(0.2), ReliabilityConfig(0.7)):
            result = fuse_all(g, cfg)
            for _, r in result.per_edge(result.records):
                assert -TOL <= r.inf <= 1.0 + TOL

    def test_fully_reliable_contradiction_is_an_error(self):
        # With alpha fixed at 1, the mention and retweet indicators fully
        # contradict on both edges of the two-edge graph.
        with pytest.raises(FusionError) as err:
            fuse_all(two_edge_graph(), ReliabilityConfig(1.0))
        assert "->" in str(err.value)

    def test_estimated_mode_defuses_the_same_contradiction(self):
        result = fuse_all(two_edge_graph(), ESTIMATED)
        assert len(result.column) == 2
        for _, r in result.per_edge(result.records):
            assert -TOL <= r.inf <= 1.0 + TOL

    def test_deterministic(self):
        g, _ = generate_synthetic(seed=15, n_users=50, n_edges=140)
        first = fuse_all(g, ESTIMATED)
        second = fuse_all(g, ESTIMATED)
        assert [(e, r.inf) for e, r in first.per_edge(first.records)] == [
            (e, r.inf) for e, r in second.per_edge(second.records)
        ]

    def test_empty_graph(self):
        result = fuse_all(SocialGraph(), ESTIMATED)
        assert dict(result.per_edge(result.records)) == {}


class TestDiagnosticsRecords:
    def test_edge_bba_sets_expose_normalized_weights(self):
        g = two_edge_graph()
        sets = dict(edge_bba_sets(g, ESTIMATED))
        bba_ab, bba_cd = sets[("a", "b")][0], sets[("c", "d")][0]
        # Mentions: 5 on (a,b) and 0 on (c,d) normalize to 1 and 0.
        assert bba_ab[1].influencer == pytest.approx(1.0)
        assert bba_cd[1].influencer == pytest.approx(0.0)
        # Degenerate common-neighbors indicator reports weight 0.
        assert bba_ab[0].influencer == 0.0

    def test_weights_are_correctly_rounded_quotients_of_the_counts(self):
        # Mentions 3, 2**53, 2**53 + 1 and 7 normalize over [3, 2**53 + 1];
        # the two large counts stay two vectors with two weights.
        g = SocialGraph()
        for (u, v), count in [(("a", "b"), 3), (("c", "d"), 2**53),
                              (("e", "f"), 2**53 + 1), (("g", "h"), 7)]:
            add_count(g.mentions, g, u, v, count)
        low, high = 3, 2**53 + 1
        result = fuse_all(g, ReliabilityConfig(0.2))
        assert len(result.records) == 4
        weights = {edge: record.weights for edge, record in result.per_edge(result.records)}
        for (u, v), count in g.mentions.items():
            # Fraction to float rounds the exact quotient correctly.
            assert weights[u, v] == (0.0, float(Fraction(count - low, high - low)), 0.0)
        assert weights["c", "d"][1] == 1.0 - 2.0**-53
        assert weights["e", "f"][1] == 1.0

    @pytest.mark.parametrize(
        "graph_args",
        [
            dict(seed=21, n_users=80, n_edges=240),
            # No activity: mentions and retweets are constant over the edges.
            dict(seed=22, n_users=60, n_edges=70, quiet=True),
        ],
    )
    @pytest.mark.parametrize(
        "cfg",
        [
            ReliabilityConfig(0.2),
            ESTIMATED,
        ],
        ids=lambda cfg: cfg.name,
    )
    def test_fuse_all_records_match_per_edge_reference(self, graph_args, cfg):
        g, _ = synthetic_graph(**graph_args)
        values = indicator_map(g)
        n = len(INDICATOR_NAMES)
        lows = [min(vec[j] for vec in values.values()) for j in range(n)]
        highs = [max(vec[j] for vec in values.values()) for j in range(n)]
        bbas = {
            edge: tuple(indicator_bba(vec[j], lows[j], highs[j]) for j in range(n))
            for edge, vec in values.items()
        }

        result = fuse_all(g, cfg)
        records = dict(result.per_edge(result.records))
        assert list(records) == list(values)
        for edge, vec in values.items():
            record = records[edge]
            assert record.weights == tuple(
                (vec[j] - lows[j]) / (highs[j] - lows[j]) if highs[j] > lows[j] else 0.0
                for j in range(n)
            )
            alphas = estimate_reliabilities(bbas[edge], cfg)
            assert record.reliabilities == alphas
            reference = fuse_edge(bbas[edge], alphas)
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
        return ReliabilityConfig(alpha)
    return ReliabilityConfig(lam=draw(st.floats(0.1, 20.0)))


def conflicting_graph() -> SocialGraph:
    """The 15 edges of ``generate_synthetic(0, 5, 15)`` with one mention and one retweet.

    The mentioned edge has the most mentions and no retweets, so at alpha 1
    its two activity indicators conflict totally.
    """
    g = SocialGraph()
    for user in ("u0000", "u0001", "u0002", "u0003", "u0004"):
        g.add_user(user)
    for src, dst in [
        ("u0002", "u0001"), ("u0002", "u0000"), ("u0001", "u0004"), ("u0002", "u0003"),
        ("u0001", "u0002"), ("u0001", "u0000"), ("u0003", "u0002"), ("u0002", "u0004"),
        ("u0004", "u0002"), ("u0003", "u0001"), ("u0000", "u0004"), ("u0000", "u0001"),
        ("u0003", "u0004"), ("u0000", "u0002"), ("u0001", "u0003"),
    ]:
        g.add_edge(src, dst)
    add_count(g.mentions, g, "u0003", "u0001", 1)
    add_count(g.retweets, g, "u0003", "u0004", 1)
    return g


def reference_fusion(g, cfg):
    """``edge_bba_sets`` + ``fuse_edge``: the records, or the edge's error message.

    Besides total conflict, a combination can fail ``MassFunction``'s sum
    check when near-total conflict leaves too few digits in its normalizer.
    """
    records = {}
    for edge, inputs in edge_bba_sets(g, cfg):
        try:
            records[edge] = fuse_edge(*inputs)
        except ValueError as exc:
            return None, f"edge {edge[0]!r} -> {edge[1]!r}: {exc}"
    return records, None


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(graph=synthetic_graphs(), cfg=reliability_configs())
    # Total conflict at alpha 1 and just below it.
    @example(graph=(conflicting_graph(), {}), cfg=ReliabilityConfig(1.0))
    @example(graph=(conflicting_graph(), {}), cfg=ReliabilityConfig(1.0 - 1e-13))
    def test_fuse_all_equals_reference_exactly(self, graph, cfg):
        g, _ = graph
        expected, error = reference_fusion(g, cfg)
        if error is not None:
            with pytest.raises(FusionError) as err:
                fuse_all(g, cfg)
            assert str(err.value) == error
            return
        result = fuse_all(g, cfg)
        records = dict(result.per_edge(result.records))
        assert list(records) == list(expected)
        for edge, record in records.items():
            reference = expected[edge]
            assert record.weights == reference.weights
            assert record.reliabilities == reference.reliabilities
            assert fused(record) == fused(reference)
            assert record.inf == reference.inf


CACHE_CONFIGS = [
    ReliabilityConfig(0.0),
    ReliabilityConfig(0.2),
    ReliabilityConfig(1.0),
    ESTIMATED,
]


def assert_records_equal(fused_edges, expected):
    records = dict(fused_edges.per_edge(fused_edges.records))
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
            (31, 300, 600),
            (32, 400, 800),
            # No activity: only common neighbours vary, so alpha 1 fuses too.
            (35, 300, 700, True),
        ],
    )
    def test_repeated_vectors_match_per_edge_reference(self, graph_args):
        g, _ = synthetic_graph(*graph_args)
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
                edge_records = records.per_edge(records.records)
                assert len({id(r.weights) for _, r in edge_records}) == len(distinct)
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
        add_count(g.mentions, g, "a", "b", 5)
        add_count(g.retweets, g, "c", "d", 3)
        add_count(g.mentions, g, "e", "f", 5)
        values = indicator_map(g)
        assert values[("a", "b")] == values[("e", "f")] == (0.0, 5.0, 0.0)
        cfg = ReliabilityConfig(1.0)
        _, error = reference_fusion(g, cfg)
        assert error == "edge 'a' -> 'b': total conflict between sources (K=1.0)"
        with pytest.raises(FusionError) as err:
            fuse_all(g, cfg)
        assert str(err.value) == error
        sweep = fuse_configs(g, [ReliabilityConfig(0.2), cfg])
        assert len(next(sweep).column) == 4
        with pytest.raises(FusionError) as err:
            next(sweep)
        assert str(err.value) == error


class TestSharedRecords:
    """Every edge with the same indicator vector maps to one frozen record."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ReliabilityConfig(0.0),
            ReliabilityConfig(0.2),
            ESTIMATED,
        ],
        ids=lambda cfg: cfg.name,
    )
    def test_one_record_per_distinct_vector(self, cfg):
        g, _ = generate_synthetic(31, 300, 600)
        values = indicator_map(g)
        result = fuse_all(g, cfg)
        records = dict(result.per_edge(result.records))
        assert len({id(r) for r in records.values()}) == len(set(values.values()))
        first = {}
        for edge, vec in values.items():
            assert records[edge] is first.setdefault(vec, records[edge])

    def test_records_are_frozen(self):
        g, _ = generate_synthetic(31, 300, 600)
        result = fuse_all(g, ESTIMATED)
        _, record = next(result.per_edge(result.records))
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
        g, _ = generate_synthetic(31, 300, 600)
        distinct, _ = raw_indicators(g)
        configs = [
            ReliabilityConfig(0.2),
            ESTIMATED,
            ReliabilityConfig(lam=2.0),
        ]
        calls = self.count_calls(monkeypatch, "fuse_edge")
        sweeps = [len(result.column) for result in fuse_configs(g, configs)]
        assert sweeps == [num_edges(g)] * 3
        assert len(calls) == 3 * len(distinct)
