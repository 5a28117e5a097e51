"""Two-hop influence field: literal evaluation, frontier restructuring, laws."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimax.fusion import FusedEdges
from evimax.graph import SocialGraph, UnknownUserError
from evimax.maximize import _SelectionState
from evimax.spread import InfluenceField, sigma
from tests.helpers import (
    brute_force_influence_on,
    brute_force_sigma,
    random_field,
    safe_weight_bound,
)
from tests.oracles import (
    AlreadyInSetError,
    influence,
    influence_on,
    marginal_gain,
    singleton_spread_bounds_reference,
)

TOL = 1e-9


@pytest.fixture
def chain() -> InfluenceField:
    """a -> b (0.5) -> c (0.4)."""
    return InfluenceField("abc", {("a", "b"): 0.5, ("b", "c"): 0.4})


class TestInfluenceField:
    def test_pairwise_lookup(self, chain):
        assert influence(chain, "a", "a") == 1.0
        assert influence(chain, "a", "b") == 0.5
        assert influence(chain, "a", "c") == 0.0
        assert influence(chain, "b", "a") == 0.0

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(UnknownUserError):
            InfluenceField("ab", {("a", "z"): 0.5})

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            InfluenceField("ab", {("a", "b"): 1.5})
        with pytest.raises(ValueError):
            InfluenceField("ab", {("a", "b"): -0.1})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            InfluenceField("ab", {("a", "a"): 0.5})

    def test_from_graph_reads_record_inf(self):
        class Rec:
            def __init__(self, inf: float) -> None:
                self.inf = inf

        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        field = InfluenceField.from_graph(FusedEdges(g, [0, 1], [Rec(0.5), Rec(0.25)]))
        assert influence(field, "a", "b") == 0.5
        assert influence(field, "b", "c") == 0.25

    def test_from_graph_keeps_a_fused_mass_an_ulp_above_one(self):
        # Dempster's normalization can round a fused mass to 1 + 2**-52.
        g = SocialGraph()
        g.add_edge("a", "b")
        above_one = math.nextafter(1.0, 2.0)
        field = InfluenceField.from_graph(FusedEdges(g, [0], [SimpleNamespace(inf=above_one)]))
        assert influence(field, "a", "b") == above_one
        assert field.singleton_spread_bounds()["a"] >= sigma(field, {"a"})


class TestInfluenceOn:
    def test_member_is_one(self, chain):
        assert influence_on(chain, {"a"}, "a") == 1.0

    def test_single_edge_counts_direct_influence_twice(self):
        # x ranges over {a, b}: Inf(a,a)*Inf(a,b) + Inf(a,b)*Inf(b,b).
        field = InfluenceField("ab", {("a", "b"): 0.5})
        assert influence_on(field, {"a"}, "b") == pytest.approx(1.0, abs=1e-12)

    def test_two_hop_chain(self, chain):
        # x ranges over {b, c}: Inf(a,b)*Inf(b,c) + Inf(a,c)*Inf(c,c).
        assert influence_on(chain, {"a"}, "c") == pytest.approx(0.2, abs=1e-12)

    def test_unknown_user(self, chain):
        with pytest.raises(UnknownUserError):
            influence_on(chain, {"a"}, "z")
        with pytest.raises(UnknownUserError):
            influence_on(chain, {"z"}, "a")

    def test_matches_brute_force_all_users_loop(self):
        """The in-neighborhood restriction is an exact restructuring."""
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(2, 10)
            field = random_field(rng, n, edge_prob=0.4, max_weight=1.0)
            users = list(field.users)
            seeds = {u for u in users if rng.random() < 0.4}
            for v in users:
                literal = influence_on(field, seeds, v)
                brute = brute_force_influence_on(field, seeds, v)
                assert literal == pytest.approx(brute, abs=TOL)


class TestSigma:
    def test_empty_set_is_zero(self, chain):
        assert sigma(chain, set()) == 0.0

    def test_full_set_is_user_count(self, chain):
        assert sigma(chain, {"a", "b", "c"}) == 3.0

    def test_worked_chain_value(self, chain):
        assert sigma(chain, {"a"}) == pytest.approx(2.2, abs=1e-12)

    def test_no_edges_means_membership_only(self):
        field = InfluenceField("abcd", {})
        assert sigma(field, {"a", "c"}) == 2.0

    def test_at_least_set_size(self):
        rng = random.Random(7)
        for _ in range(30):
            field = random_field(rng, rng.randint(1, 10), 0.5, 1.0)
            users = list(field.users)
            seeds = {u for u in users if rng.random() < 0.5}
            assert sigma(field, seeds) >= len(seeds) - TOL

    def test_matches_per_user_literal_sum(self):
        rng = random.Random(90210)
        for _ in range(60):
            field = random_field(rng, rng.randint(1, 11), 0.35, 1.0)
            users = list(field.users)
            seeds = {u for u in users if rng.random() < 0.4}
            direct = sum(influence_on(field, seeds, v) for v in users)
            assert sigma(field, seeds) == pytest.approx(direct, abs=TOL)
            assert sigma(field, seeds) == pytest.approx(
                brute_force_sigma(field, seeds), abs=TOL
            )

    def test_invariant_under_relabeling(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.randint(2, 9)
            field = random_field(rng, n, 0.4, 1.0)
            users = list(field.users)
            relabeled = {u: f"x{i:03d}" for i, u in enumerate(rng.sample(users, n))}
            mapped = InfluenceField(
                [relabeled[u] for u in users],
                {
                    (relabeled[u], relabeled[v]): influence(field, u, v)
                    for u in users
                    for v in users
                    if u != v and influence(field, u, v) > 0.0
                },
            )
            seeds = {u for u in users if rng.random() < 0.5}
            mapped_seeds = {relabeled[u] for u in seeds}
            assert sigma(field, seeds) == pytest.approx(
                sigma(mapped, mapped_seeds), abs=TOL
            )


class TestMarginalGain:
    def test_gain_from_empty_set_is_single_sigma(self, chain):
        assert marginal_gain(chain, set(), "a") == pytest.approx(
            sigma(chain, {"a"}), abs=1e-12
        )

    def test_worked_chain_gain(self, chain):
        assert marginal_gain(chain, set(), "a") == pytest.approx(2.2, abs=1e-12)

    def test_isolated_node_adds_exactly_one(self):
        field = InfluenceField("abc", {("a", "b"): 0.7})
        assert marginal_gain(field, {"a"}, "c") == pytest.approx(1.0, abs=1e-12)

    def test_already_selected(self, chain):
        with pytest.raises(AlreadyInSetError):
            marginal_gain(chain, {"a"}, "a")

    def test_unknown_user(self, chain):
        with pytest.raises(UnknownUserError):
            marginal_gain(chain, {"a"}, "z")


class TestObjectiveShape:
    """Monotonicity and diminishing returns of the spread objective."""

    def test_monotone_on_small_weight_instances(self):
        """No violations across 100 random graphs with scaled-down weights.

        Monotonicity of the literal objective holds when weights stay below
        1/(3n); see the non-monotonicity characterization below for why the
        cap is needed.
        """
        rng = random.Random(20250501)
        for _ in range(100):
            n = rng.randint(2, 12)
            field = random_field(rng, n, 0.35, safe_weight_bound(n))
            users = list(field.users)
            for _ in range(20):
                seeds = {u for u in users if rng.random() < 0.4}
                w = rng.choice([u for u in users if u not in seeds] or users[:1])
                if w in seeds:
                    continue
                assert (
                    sigma(field, seeds | {w}) >= sigma(field, seeds) - TOL
                )

    def test_submodular_for_arbitrary_weights(self):
        """Diminishing returns holds with no weight restriction at all."""
        rng = random.Random(20250502)
        for _ in range(100):
            n = rng.randint(3, 12)
            field = random_field(rng, n, 0.35, 1.0)
            users = list(field.users)
            for _ in range(20):
                small = {u for u in users if rng.random() < 0.3}
                extra = {u for u in users if u not in small and rng.random() < 0.3}
                large = small | extra
                outside = [u for u in users if u not in large]
                if not outside:
                    continue
                w = rng.choice(outside)
                gain_small = marginal_gain(field, small, w)
                gain_large = marginal_gain(field, large, w)
                assert gain_small >= gain_large - TOL

    def test_not_monotone_for_large_weights(self):
        """Characterization: with heavy weights the objective can decrease.

        A single edge of weight 0.8 pushes the influence received by its
        endpoint to 1.6; converting that endpoint into a seed caps its own
        term at 1, so the spread drops.  This is why monotonicity is only
        asserted on the scaled-weight family above.
        """
        field = InfluenceField("ab", {("a", "b"): 0.8})
        assert sigma(field, {"a"}) == pytest.approx(2.6, abs=1e-12)
        assert sigma(field, {"a", "b"}) == 2.0
        assert sigma(field, {"a", "b"}) < sigma(field, {"a"})


# Exact zeros and ones, values a rounding away from 1, tiny and subnormal
# values, and anything in [0, 1].
_weights = st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-12, 1e-9, 5e-324]),
    st.floats(0.0, 1.0),
)


@st.composite
def mixed_weight_fields(draw):
    """Small fields over ``_weights``, with or without reciprocal edges."""
    n = draw(st.integers(1, 12))
    users = [f"n{i:02d}" for i in range(n)]
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _weights, _weights),
            max_size=50,
        )
    )
    reciprocal = draw(st.booleans())
    weights = {}
    for a, b, w, back in edges:
        if a != b:
            weights[(users[a], users[b])] = w
            if reciprocal:
                weights[(users[b], users[a])] = back
    return InfluenceField(users, weights), weights


class TestSingletonSpreadBounds:
    @settings(max_examples=300, deadline=None)
    @given(case=mixed_weight_fields())
    def test_bounds_the_float_singleton_spread_and_gain(self, case):
        field, weights = case
        bounds = field.singleton_spread_bounds()
        assert list(bounds) == list(field.users)
        state = _SelectionState(field)
        for u, bound in bounds.items():
            assert bound >= sigma(field, {u})
            assert bound >= state.gain(u)

    @settings(max_examples=300, deadline=None)
    @given(case=mixed_weight_fields())
    def test_skipping_zero_weights_is_bit_identical(self, case):
        # The bounds skip zero-weight terms; the reference adds every term.
        field, _ = case
        bounds = field.singleton_spread_bounds()
        reference = singleton_spread_bounds_reference(field)
        assert list(bounds) == list(reference)
        assert [b.hex() for b in bounds.values()] == [b.hex() for b in reference.values()]

    @settings(max_examples=100, deadline=None)
    @given(case=mixed_weight_fields())
    def test_exactly_one_without_a_nonzero_out_weight(self, case):
        field, weights = case
        active = {u for (u, _), w in weights.items() if w != 0.0}
        state = _SelectionState(field)
        for u, bound in field.singleton_spread_bounds().items():
            if u in active:
                assert bound > 1.0
            else:
                assert bound == 1.0 == sigma(field, {u}) == state.gain(u)

    def test_worked_chain_bounds(self, chain):
        # a: 1 + 0.5 * (2 + 0.4) = 2.2, then the margin; b: 1 + 0.4 * 2 = 1.8.
        bounds = chain.singleton_spread_bounds()
        assert bounds["a"] == pytest.approx(2.2, rel=1e-14) and bounds["a"] >= 2.2
        assert bounds["b"] == pytest.approx(1.8, rel=1e-14) and bounds["b"] >= 1.8
        assert bounds["c"] == 1.0
