"""Seed selection: CELF against naive greedy, greedy against exhaustive."""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from itertools import accumulate, count
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evimax import maximize
from evimax.fusion import FusionError, ReliabilityConfig, fuse_all
from evimax.maximize import InvalidKError, SeedSelection, select_celf
from evimax.spread import InfluenceField, sigma
from evimax.synthetic import generate_synthetic
from tests.helpers import random_field, safe_weight_bound, synthetic_graphs
from tests.oracles import (
    TooLargeError,
    field_with_zeros,
    marginal_gain,
    reordered_sum_tolerance,
    select_celf_single_heap,
    select_exhaustive,
    select_greedy_exact,
    select_greedy_naive,
)


@pytest.fixture
def chain() -> InfluenceField:
    return InfluenceField("abc", {("a", "b"): 0.5, ("b", "c"): 0.4})


@st.composite
def fields_and_k(draw):
    """A random field from a drawn seed, and a k that may exceed its user count."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 25))
    field = random_field(rng, n, draw(st.floats(0.0, 0.6)), 1.0)
    return field, draw(st.integers(1, n + 3))


class TestSeedSelection:
    """SeedSelection is a plain record; both greedy variants keep its invariants."""

    @settings(max_examples=60, deadline=None)
    @given(case=fields_and_k())
    def test_rejects_duplicate_users(self, case):
        field, k = case
        for selection in (select_celf(field, k), select_greedy_naive(field, k)):
            users = selection.users
            assert len(set(users)) == len(users)
            assert set(users) <= set(field.users)


class TestWorkedExamples:
    def test_chain_k1_selects_head(self, chain):
        selection = select_celf(chain, 1)
        assert selection.users == ["a"]
        assert selection.gains == [pytest.approx(2.2, abs=1e-12)]

    def test_k_equals_user_count_exhausts(self, chain):
        selection = select_celf(chain, 3)
        assert sorted(selection.users) == ["a", "b", "c"]
        # With every user selected, each spread term is the membership case.
        assert [*accumulate(selection.gains)][-1] == pytest.approx(3.0, abs=1e-12)

    def test_k_larger_than_user_count_caps(self, chain):
        assert len(select_celf(chain, 50)) == 3
        assert len(select_greedy_naive(chain, 50)) == 3

    def test_symmetric_tie_breaks_to_smaller_id(self):
        field = InfluenceField("ab", {("a", "b"): 0.3, ("b", "a"): 0.3})
        assert select_celf(field, 1).users == ["a"]
        assert select_greedy_naive(field, 1).users == ["a"]

    def test_k1_matches_argmax_of_single_sigmas(self):
        rng = random.Random(17)
        for _ in range(30):
            field = random_field(rng, rng.randint(2, 12), 0.4, 1.0)
            best = min(
                ((-sigma(field, {u}), u) for u in field.users),
            )[1]
            assert select_celf(field, 1).users == [best]

    @pytest.mark.parametrize("k", [0, -3])
    def test_invalid_k(self, chain, k):
        with pytest.raises(InvalidKError):
            select_celf(chain, k)
        with pytest.raises(InvalidKError):
            select_greedy_naive(chain, k)
        with pytest.raises(InvalidKError):
            select_exhaustive(chain, k)


class TestCelfAgainstNaive:
    def test_identical_output_on_100_random_instances(self):
        """Lazy and full-rescan greedy agree exactly, ranks, gains and all."""
        rng = random.Random(987)
        for _ in range(100):
            n = rng.randint(2, 30)
            field = random_field(rng, n, rng.uniform(0.05, 0.5), 1.0)
            k = rng.randint(1, 5)
            celf = select_celf(field, k)
            naive = select_greedy_naive(field, k)
            assert celf.users == naive.users
            assert [g.hex() for g in celf.gains] == [g.hex() for g in naive.gains]

    def test_lazy_never_evaluates_more_gains(self):
        rng = random.Random(988)
        for _ in range(40):
            n = rng.randint(2, 25)
            field = random_field(rng, n, 0.3, 1.0)
            k = rng.randint(1, min(5, n))
            celf = select_celf(field, k)
            naive = select_greedy_naive(field, k)
            assert celf.gain_evaluations <= naive.gain_evaluations

    def test_deterministic_across_runs(self):
        rng = random.Random(989)
        field = random_field(rng, 20, 0.3, 1.0)
        first = select_celf(field, 5)
        second = select_celf(field, 5)
        assert first.users == second.users
        assert first.gains == second.gains


class TestCelfAgainstExactGreedy:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), k=st.integers(1, 4))
    def test_seeds_and_gains_match_until_a_near_tie(self, seed, n, k):
        # Up to the first rank whose exact best and runner-up gains lie
        # within 2**-30, float rounding cannot change the pick, so CELF
        # chooses the exact greedy's seed with a gain within 2**-40 of it.
        field = random_field(random.Random(seed), n)
        exact = select_greedy_exact(field, k)
        selection = select_celf(field, k)
        for got_user, got_gain, (user, gain, margin) in zip(
            selection.users, selection.gains, exact
        ):
            if margin is not None and margin <= Fraction(2) ** -30:
                break
            assert got_user == user
            assert abs(Fraction(got_gain) - gain) <= Fraction(2) ** -40 * max(1, gain)


def fused_field(seed: int, n_users: int, n_edges: int, token: str) -> InfluenceField:
    g, _ = generate_synthetic(seed=seed, n_users=n_users, n_edges=n_edges)
    return InfluenceField.from_graph(fuse_all(g, ReliabilityConfig.parse(token)))


class TestCelfOnFusedGraphs:
    """Fused weights are mostly exact zeros, so many gains tie at exactly 1.0."""

    @pytest.mark.parametrize("token", ["fixed:0", "fixed:0.2", "estimated"])
    def test_identical_to_naive(self, token):
        for seed in range(8):
            field = fused_field(seed, 30 + 5 * seed, 20 + 15 * seed, token)
            k = min(12, field.num_users())
            celf = select_celf(field, k)
            naive = select_greedy_naive(field, k)
            assert celf.users == naive.users
            assert [g.hex() for g in celf.gains] == [g.hex() for g in naive.gains]

    @settings(max_examples=60, deadline=None)
    @given(
        graph=synthetic_graphs(),
        token=st.sampled_from(["fixed:0", "fixed:0.2", "estimated"]),
        k=st.integers(1, 12),
    )
    def test_field_from_the_column_equals_the_user_built_field(self, graph, token, k):
        # from_graph reads each edge's weight off the vector-id column; the
        # user-built field gets the same weights as an {edge: weight} map.
        g, _ = graph
        fused = fuse_all(g, ReliabilityConfig.parse(token))
        weights = {edge: record.inf for edge, record in fused.per_edge(fused.records)}
        column_field = InfluenceField.from_graph(fused)
        user_field = InfluenceField(g.users, weights)
        assert column_field._out == user_field._out
        got, expected = select_celf(column_field, k), select_celf(user_field, k)
        same_selection(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        graph=synthetic_graphs(),
        token=st.sampled_from(["fixed:0", "fixed:0.2", "estimated", "fixed:1"]),
        k=st.integers(1, 30),
    )
    def test_zero_free_field_selects_as_the_field_with_zeros(self, graph, token, k):
        # Each gain is the same float sum over the seed's contributions in
        # the field with zeros, up to its order (see TestZeroFreeField in
        # test_spread.py), so the rankings agree up to the first rank where
        # two gains tie within that rounding, and every gain agrees to it.
        g, _ = graph
        try:
            fused = fuse_all(g, ReliabilityConfig.parse(token))
        except FusionError:  # fixed:1 can meet total conflict
            assume(False)
        field = InfluenceField.from_graph(fused)
        got = select_celf(field, k)
        expected = select_celf(field_with_zeros(
            g.users, fused.per_edge([record.inf for record in fused.records])
        ), k)
        assert len(got) == len(expected)
        got_sigma, expected_sigma = [*accumulate(got.gains)], [*accumulate(expected.gains)]
        # A gain's sum over the candidate's contributions is at most its
        # singleton spread, and the influence it loses to the seeds at most
        # the spread so far: this bounds every value the two runs round.
        scale = (
            1.0 + max(field.singleton_spread_bounds().values(), default=1.0)
            + max(got_sigma + expected_sigma)
        )
        gain_tolerance = reordered_sum_tolerance(len(g.users) + 1, scale)
        for rank, a, b, a_gain, b_gain, a_sigma, b_sigma in zip(
            count(1), got.users, expected.users, got.gains, expected.gains,
            got_sigma, expected_sigma,
        ):
            assert abs(a_gain - b_gain) <= gain_tolerance
            if a != b:
                break
            assert abs(a_sigma - b_sigma) <= rank * (
                gain_tolerance + reordered_sum_tolerance(2, scale)
            )

    def test_all_zero_field_commits_by_id_almost_unevaluated(self):
        field = fused_field(41, 60, 150, "fixed:0")
        k = 10
        selection = select_celf(field, k)
        assert selection.gain_evaluations <= k - 1
        assert selection.users == sorted(field.users)[:k]
        assert selection.gains == [1.0] * k

    def test_bounds_spare_most_initial_evaluations(self):
        field = fused_field(43, 2000, 4000, "estimated")
        selection = select_celf(field, 50)
        assert selection.gain_evaluations < field.num_users() / 10


def heapify_calls(monkeypatch) -> list[int]:
    """The sizes of the lists ``select_celf`` heapifies, in call order.

    The first is its heap of bounds; a second is that heap once the idle
    ids have joined it.
    """
    sizes: list[int] = []

    def heapify(items: list) -> None:
        sizes.append(len(items))
        heapq.heapify(items)

    monkeypatch.setattr(maximize, "heapq", SimpleNamespace(
        heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush
    ))
    return sizes


def same_selection(got: SeedSelection, expected: SeedSelection) -> None:
    """Identical users, gains to the bit, and evaluations."""
    assert got.users == expected.users
    assert [g.hex() for g in got.gains] == [g.hex() for g in expected.gains]
    assert got.gain_evaluations == expected.gain_evaluations


@st.composite
def mostly_idle_fields(draw):
    """A field where few users store an out-edge, and a k up to users + 3.

    Users are inserted out of id order, so idle ids fall on both sides of
    the stored ones; dyadic weights make exact gain ties, 1.0 among them.
    """
    n = draw(st.integers(1, 30))
    users = [f"u{i:02d}" for i in draw(st.permutations(range(n)))]
    sources = draw(st.lists(st.sampled_from(users), max_size=n // 4 + 1, unique=True))
    weight = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    weights = {}
    for u in sources:
        for v in draw(st.lists(st.sampled_from(users), min_size=1, max_size=3, unique=True)):
            if v != u:
                weights[(u, v)] = draw(weight)
    return InfluenceField(users, weights), draw(st.integers(1, n + 3))


class TestIdleIdHeap:
    """``select_celf`` adds users without a stored out-edge to its heap late.

    They join once, the first time an idle entry (-1.0, id, 0) can be the
    top, and it must pop what one heap holding every user from the start
    pops: ``select_celf_single_heap``.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_idle_fields())
    def test_same_as_one_heap_on_mostly_idle_fields(self, case):
        field, k = case
        same_selection(select_celf(field, k), select_celf_single_heap(field, k))

    @settings(max_examples=100, deadline=None)
    @given(
        graph=synthetic_graphs(),
        token=st.sampled_from(["fixed:0", "fixed:0.2", "estimated"]),
        extra=st.integers(-5, 3),
    )
    def test_same_as_one_heap_on_fused_fields(self, graph, token, extra):
        # fixed:0 stores no edge at all, so every user is idle.
        g, _ = graph
        field = InfluenceField.from_graph(fuse_all(g, ReliabilityConfig.parse(token)))
        k = max(1, field.num_users() + extra)
        same_selection(select_celf(field, k), select_celf_single_heap(field, k))

    def test_exact_tie_at_one_between_stored_and_idle_ids(self):
        # After seed a, gain(b) = 1 - 0.5 + 0.5 = 1.0 exactly, tying with
        # the idle ids a0 and b0 on either side of b: id order decides.
        field = InfluenceField(
            ["b0", "c", "b", "a0", "a"], {("a", "b"): 0.25, ("b", "c"): 0.25}
        )
        selection = select_celf(field, 10)
        assert selection.users == ["a", "a0", "b", "b0", "c"]
        assert selection.gains == [1.5625, 1.0, 1.0, 1.0, 0.4375]
        same_selection(selection, select_celf_single_heap(field, 10))

    def test_idle_ids_join_the_stored_entries_after_round_0(self, monkeypatch):
        # The field of the exact tie above: after seed a, b's entry is
        # (-1.0, b, 1), the first top key to reach -1.0, so b0, c and a0
        # join the heap while it still holds b.
        field = InfluenceField(
            ["b0", "c", "b", "a0", "a"], {("a", "b"): 0.25, ("b", "c"): 0.25}
        )
        sizes = heapify_calls(monkeypatch)
        selection = select_celf(field, 10)
        assert sizes == [2, 4]
        same_selection(selection, select_celf_single_heap(field, 10))

    def test_all_idle_field_builds_the_idle_heap_at_once(self, monkeypatch):
        sizes = heapify_calls(monkeypatch)
        field = fused_field(41, 60, 150, "fixed:0")
        selection = select_celf(field, 70)
        assert sizes == [0, 60]
        assert selection.users == sorted(field.users)
        same_selection(selection, select_celf_single_heap(field, 70))

    def test_estimated_k50_never_builds_the_idle_heap(self, monkeypatch):
        field = fused_field(43, 2000, 4000, "estimated")
        sizes = heapify_calls(monkeypatch)
        selection = select_celf(field, 50)
        assert sizes == [len(field._out)]
        assert 0 < len(field._out) < field.num_users()
        same_selection(selection, select_celf_single_heap(field, 50))


class TestRecordedValues:
    def test_committed_gains_match_fresh_marginal_gains(self):
        """Every recorded gain equals the sigma-difference recomputation."""
        rng = random.Random(990)
        for _ in range(25):
            field = random_field(rng, rng.randint(2, 15), 0.35, 1.0)
            selection = select_celf(field, min(4, field.num_users()))
            prefix: set[str] = set()
            for user, gain in zip(selection.users, selection.gains):
                fresh = marginal_gain(field, prefix, user)
                assert gain == pytest.approx(fresh, abs=1e-9)
                prefix.add(user)

    @settings(max_examples=80, deadline=None)
    @given(case=fields_and_k())
    def test_cumulative_sigma_tracks_sigma_of_every_prefix(self, case):
        """The running sum of committed gains stays on sigma of the seeds so far."""
        field, k = case
        for selection in (select_celf(field, k), select_greedy_naive(field, k)):
            prefix: set[str] = set()
            for user, spread in zip(selection.users, accumulate(selection.gains)):
                prefix.add(user)
                exact = sigma(field, prefix)
                assert abs(spread - exact) <= 1e-9 * max(1.0, exact)


class TestExhaustiveOracle:
    def test_single_user_instance(self):
        field = InfluenceField(["solo"], {})
        assert select_exhaustive(field, 1) == {"solo"}

    def test_too_large(self):
        field = random_field(random.Random(0), 50, 0.1, 1.0)
        assert math.comb(50, 10) > 10**6
        with pytest.raises(TooLargeError):
            select_exhaustive(field, 10)

    def test_ties_resolve_lexicographically(self):
        field = InfluenceField("ba", {("a", "b"): 0.3, ("b", "a"): 0.3})
        assert select_exhaustive(field, 1) == {"a"}

    def test_greedy_achieves_constant_factor_of_optimum(self):
        """sigma(greedy) >= (1 - 1/e) * sigma(optimal) on monotone instances."""
        rng = random.Random(992)
        bound = 1.0 - 1.0 / math.e
        for _ in range(60):
            n = rng.randint(2, 10)
            field = random_field(rng, n, 0.4, safe_weight_bound(n))
            k = rng.randint(1, min(3, n))
            greedy_value = sigma(field, set(select_celf(field, k).users))
            optimal_value = sigma(field, select_exhaustive(field, k))
            assert greedy_value >= bound * optimal_value - 1e-9
