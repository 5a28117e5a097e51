"""Two-hop influence field: literal evaluation, frontier restructuring, laws."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evimax.fusion import FusedEdges, FusionError, ReliabilityConfig, fuse_all
from evimax.graph import SocialGraph, UnknownUserError
from evimax.spread import InfluenceField, _SelectionState, sigma
from evimax.synthetic import generate_synthetic
from tests.helpers import (
    brute_force_influence_on,
    brute_force_sigma,
    random_field,
    safe_weight_bound,
    synthetic_graphs,
)
from tests.oracles import (
    AlreadyInSetError,
    field_with_zeros,
    influence,
    influence_on,
    marginal_gain,
    reordered_sum_tolerance,
    sigma_accumulated_reference,
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


    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_weight_stores_no_out_edge(self, zero):
        field = InfluenceField(["a", "b"], {("a", "b"): zero})
        assert field._out == {} == field._out_sums
        assert list(field.users) == ["a", "b"]

    def test_from_graph_of_a_zero_alpha_fusion_stores_no_edge(self):
        g, _ = generate_synthetic(seed=31, n_users=40, n_edges=100)
        field = InfluenceField.from_graph(fuse_all(g, ReliabilityConfig(0.0)))
        assert list(field.users) == list(g.users)
        g.add_user("late")  # the field shares the graph's users view, not a copy
        assert "late" in field.users and field.num_users() == 41
        assert field._out == {} == field.singleton_spread_bounds()

    def test_from_graph_of_a_zero_alpha_fusion_walks_no_edge(self, monkeypatch):
        fused = fuse_all(generate_synthetic(seed=31, n_users=40, n_edges=100)[0],
                         ReliabilityConfig(0.0))

        def walk(self, values):
            raise AssertionError("edges walked although every inf is 0")

        monkeypatch.setattr(FusedEdges, "per_edge", walk)
        field = InfluenceField.from_graph(fused)
        assert field._out == {} == field._out_sums
        assert field.num_users() == 40


class TestZeroFreeField:
    """Dropping a zero weight drops only +0.0 terms.

    A seed's contribution to each user is the same float with or without
    the zero-weight edges.  A spread sums those contributions in the order
    the users were first reached, and a zero-weight edge can reach a user
    first, so the spread is the same sum taken in another order: equal up
    to the rounding of a reordered sum, not always bit for bit.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        graph=synthetic_graphs(),
        token=st.sampled_from(["fixed:0", "fixed:0.2", "estimated", "fixed:1"]),
        data=st.data(),
    )
    def test_contributions_bit_identical_and_sigma_reordered(self, graph, token, data):
        g, _ = graph
        try:
            fused = fuse_all(g, ReliabilityConfig.parse(token))
        except FusionError:  # fixed:1 can meet total conflict
            assume(False)
        field = InfluenceField.from_graph(fused)
        reference = field_with_zeros(
            g.users, fused.per_edge([record.inf for record in fused.records])
        )
        # Only the users with a nonzero fused out-weight are stored and bounded.
        stored = dict.fromkeys(
            u for (u, _), record in fused.per_edge(fused.records) if record.inf
        )
        assert list(field._out) == list(stored) == list(field.singleton_spread_bounds())
        for u in g.users:
            nonzero = [
                {v: c.hex() for v, c in f.seed_contributions(u).items() if c}
                for f in (field, reference)
            ]
            assert nonzero[0] == nonzero[1]
        seeds = data.draw(st.sets(st.sampled_from(list(g.users))))
        got, expected = sigma(field, seeds), sigma(reference, seeds)
        assert abs(got - expected) <= reordered_sum_tolerance(
            field.num_users() + 1, max(got, expected)
        )


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

    def test_unknown_seed_named_alike_under_every_hash_seed(self):
        """Seeds are checked in the sorted loop that sums them, so of several
        unknown seeds the error names the smallest, whatever the set's hash
        order."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "from evimax.spread import InfluenceField, sigma\n"
            "sigma(InfluenceField('ab', {('a', 'b'): 0.5}), {'x', 'y', 'z', 'a'})\n"
        )
        for hash_seed in range(6):
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path),
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 1
            assert result.stderr.splitlines()[-1] == (
                "evimax.graph.UnknownUserError: unknown user: 'x'"
            ), hash_seed

    @given(data=st.data())
    def test_raising_a_stored_weight_never_lowers_sigma(self, data):
        """Every term of the spread is a sum of products of nonnegative
        weights, and raising a stored weight keeps every summation order, so
        the float spread cannot fall either.  A weight raised from 0 would be
        a new stored edge, which can reorder the sums, so only stored weights
        are raised."""
        n = data.draw(st.integers(2, 7))
        users = [f"n{i}" for i in range(n)]
        pairs = [(u, v) for u in users for v in users if u != v]
        weights = data.draw(st.dictionaries(st.sampled_from(pairs), st.floats(0.0, 1.0)))
        stored = [edge for edge, w in weights.items() if w]
        assume(stored)
        edge = data.draw(st.sampled_from(stored))
        raised = dict(weights)
        raised[edge] = data.draw(st.floats(weights[edge], 1.0))
        seeds = set(data.draw(st.lists(st.sampled_from(users), unique=True)))
        before = sigma(InfluenceField(users, weights), seeds)
        assert sigma(InfluenceField(users, raised), seeds) >= before

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_the_accumulation_reference(self, data):
        """``sigma`` adds its seeds through ``_SelectionState``; the
        reference writes the same additions out in loops of its own, so the
        bits agree, and so does the error for a set holding unknown ids
        (``m0`` sorts before every user, ``o0`` after)."""
        field, _ = data.draw(mixed_weight_fields())
        candidates = [*field.users, "m0", "o0"]
        seeds = set(data.draw(st.lists(st.sampled_from(candidates), unique=True)))

        def outcome(spread):
            try:
                return spread(field, seeds).hex()
            except UnknownUserError as exc:
                return repr(exc)

        assert outcome(sigma) == outcome(sigma_accumulated_reference)


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
        # A seed set mixing known and unknown ids fails in sigma's loop.
        with pytest.raises(UnknownUserError, match="unknown user: 'z'"):
            marginal_gain(chain, {"a", "z"}, "b")


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


# Exact zeros of either sign and ones, values a rounding away from 1, tiny
# and subnormal values, and anything in [0, 1].
_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-12, 1e-9, 5e-324]),
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
        # Keyed by the users with a nonzero out-weight, in first-edge order.
        assert list(bounds) == list(dict.fromkeys(u for (u, _), w in weights.items() if w))
        state = _SelectionState(field)
        for u in field.users:
            bound = bounds.get(u, 1.0)
            assert bound >= sigma(field, {u})
            assert bound >= state.gain(u)

    @settings(max_examples=300, deadline=None)
    @given(case=mixed_weight_fields())
    def test_skipping_zero_weights_is_bit_identical(self, case):
        # The field drops zero weights; the reference keeps and adds them.
        field, weights = case
        bounds = field.singleton_spread_bounds()
        reference = singleton_spread_bounds_reference(
            field_with_zeros(field.users, weights.items())
        )
        assert {u: b.hex() for u, b in bounds.items()} == {
            u: b.hex() for u, b in reference.items()
        }

    @settings(max_examples=100, deadline=None)
    @given(case=mixed_weight_fields())
    def test_exactly_one_without_a_nonzero_out_weight(self, case):
        field, weights = case
        active = {u for (u, _), w in weights.items() if w != 0.0}
        state = _SelectionState(field)
        bounds = field.singleton_spread_bounds()
        assert set(bounds) == active == set(field._out) == set(field._out_sums)
        for u in field.users:
            if u in active:
                assert bounds[u] > 1.0
            else:
                assert sigma(field, {u}) == 1.0 == state.gain(u)

    def test_worked_chain_bounds(self, chain):
        # a: 1 + 0.5 * (2 + 0.4) = 2.2, then the margin; b: 1 + 0.4 * 2 = 1.8.
        bounds = chain.singleton_spread_bounds()
        assert bounds["a"] == pytest.approx(2.2, rel=1e-14) and bounds["a"] >= 2.2
        assert bounds["b"] == pytest.approx(1.8, rel=1e-14) and bounds["b"] >= 1.8
        assert "c" not in bounds and sigma(chain, {"c"}) == 1.0
