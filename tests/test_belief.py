"""Mass-function arithmetic: worked examples, algebraic laws, oracle checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evimax.belief import (
    MassFunction,
    TotalConflictError,
    combine_dempster,
    discount,
    jousselme_distance,
)
from tests.helpers import bbas, brute_force_dempster, random_bba
from tests.oracles import INFLUENCER, OMEGA, PASSIVE, as_vector, is_vacuous, mass

TOL = 1e-9

unit_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


class TestMassFunction:
    def test_accessors(self):
        m = MassFunction(0.2, 0.3, 0.5)
        assert as_vector(m) == (0.0, 0.2, 0.3, 0.5)
        assert mass(m, INFLUENCER) == 0.2
        assert mass(m, PASSIVE) == 0.3
        assert mass(m, OMEGA) == 0.5
        assert mass(m, 0) == 0.0

    def test_vacuous(self):
        assert MassFunction.vacuous() == MassFunction(0.0, 0.0, 1.0)
        assert is_vacuous(MassFunction.vacuous())

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MassFunction(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            MassFunction(0.5, 0.5, float("nan"))
        with pytest.raises(ValueError, match="must sum to 1"):
            MassFunction(float("inf"), 0.0, 0.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="'influencer' is negative: -0.1"):
            MassFunction(-0.1, 0.6, 0.5)
        for masses in ((float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5),
                       (0.5, 0.5, float("nan"))):
            with pytest.raises(ValueError, match="is not a number: nan"):
                MassFunction(*masses)

    def test_clamps_negative_noise(self):
        m = MassFunction(-1e-13, 0.4, 0.6)
        assert m.influencer == 0.0

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            mass(MassFunction(0.0, 0.0, 1.0), 7)


class TestCombineDempster:
    def test_vacuous_is_neutral_exactly(self):
        m = MassFunction(0.37, 0.21, 0.42)
        combined = combine_dempster(m, MassFunction.vacuous())
        assert combined == m  # exact, not approximate

    def test_worked_two_source_example(self):
        # a: m(I)=0.6, m(Omega)=0.4; b: m(I)=0.5, m(P)=0.3, m(Omega)=0.2.
        # Conflict K = 0.6*0.3 = 0.18; values frozen from the subset-pair
        # enumeration oracle: 0.62/0.82, 0.12/0.82, 0.08/0.82.
        a = MassFunction(0.6, 0.0, 0.4)
        b = MassFunction(0.5, 0.3, 0.2)
        m = combine_dempster(a, b)
        assert m.influencer == pytest.approx(0.7560975609756098, abs=1e-9)
        assert m.passive == pytest.approx(0.14634146341463414, abs=1e-9)
        assert m.omega == pytest.approx(0.0975609756097561, abs=1e-9)

    def test_total_conflict_raises(self):
        a = MassFunction(1.0, 0.0, 0.0)
        b = MassFunction(0.0, 1.0, 0.0)
        with pytest.raises(TotalConflictError):
            combine_dempster(a, b)

    def test_near_total_conflict_raises(self):
        a = MassFunction(1.0, 0.0, 0.0)
        b = MassFunction(1e-14, 1.0 - 1e-14, 0.0)
        with pytest.raises(TotalConflictError):
            combine_dempster(a, b)

    @given(a=bbas(max_commitment=0.98), b=bbas(max_commitment=0.98))
    def test_commutative(self, a, b):
        ab = combine_dempster(a, b)
        ba = combine_dempster(b, a)
        assert ab.influencer == pytest.approx(ba.influencer, abs=TOL)
        assert ab.passive == pytest.approx(ba.passive, abs=TOL)
        assert ab.omega == pytest.approx(ba.omega, abs=TOL)

    @given(
        a=bbas(max_commitment=0.98),
        b=bbas(max_commitment=0.98),
        c=bbas(max_commitment=0.98),
    )
    def test_associative(self, a, b, c):
        left = combine_dempster(combine_dempster(a, b), c)
        right = combine_dempster(a, combine_dempster(b, c))
        assert left.influencer == pytest.approx(right.influencer, abs=TOL)
        assert left.passive == pytest.approx(right.passive, abs=TOL)
        assert left.omega == pytest.approx(right.omega, abs=TOL)

    @given(a=bbas(max_commitment=0.98), b=bbas(max_commitment=0.98))
    def test_output_normalized(self, a, b):
        m = combine_dempster(a, b)
        assert abs(sum(as_vector(m)) - 1.0) <= TOL
        assert min(as_vector(m)) >= 0.0

    def test_matches_brute_force_oracle(self):
        """1000 seeded random pairs against the 16-pair enumeration oracle."""
        rng = random.Random(20260808)
        for _ in range(1000):
            a, b = random_bba(rng), random_bba(rng)
            expected, _ = brute_force_dempster(as_vector(a), as_vector(b))
            if expected is None:
                with pytest.raises(TotalConflictError):
                    combine_dempster(a, b)
                continue
            got = as_vector(combine_dempster(a, b))
            assert max(abs(g - e) for g, e in zip(got, expected)) <= TOL


class TestDiscount:
    def test_full_reliability_is_identity(self):
        m = MassFunction(0.7, 0.1, 0.2)
        assert discount(m, 1.0) == m  # exact

    def test_zero_reliability_vacates(self):
        m = MassFunction(0.7, 0.1, 0.2)
        assert discount(m, 0.0) == MassFunction.vacuous()

    def test_worked_half_reliability(self):
        m = discount(MassFunction(0.7, 0.1, 0.2), 0.5)
        assert m.influencer == pytest.approx(0.35, abs=1e-12)
        assert m.passive == pytest.approx(0.05, abs=1e-12)
        assert m.omega == pytest.approx(0.60, abs=1e-12)
        assert sum(as_vector(m)) == pytest.approx(1.0, abs=TOL)

    def test_rejects_out_of_range_alpha(self):
        m = MassFunction.vacuous()
        with pytest.raises(ValueError):
            discount(m, -0.1)
        with pytest.raises(ValueError):
            discount(m, 1.1)

    @given(m=bbas(), alpha=unit_floats)
    def test_interpolates_toward_vacuous(self, m, alpha):
        """discount(m, a) == a*m + (1-a)*vacuous, component-wise."""
        d = discount(m, alpha)
        assert d.influencer == pytest.approx(alpha * m.influencer, abs=1e-12)
        assert d.passive == pytest.approx(alpha * m.passive, abs=1e-12)
        assert d.omega == pytest.approx(alpha * m.omega + (1.0 - alpha), abs=1e-12)

    @given(m=bbas(), alpha=unit_floats)
    def test_output_normalized(self, m, alpha):
        d = discount(m, alpha)
        assert abs(sum(as_vector(d)) - 1.0) <= TOL
        assert min(as_vector(d)) >= 0.0


class TestJousselmeDistance:
    def test_identical_is_zero(self):
        m = MassFunction(0.3, 0.3, 0.4)
        assert jousselme_distance(m, m) == 0.0

    def test_opposed_singletons_are_maximally_far(self):
        a = MassFunction(1.0, 0.0, 0.0)
        b = MassFunction(0.0, 1.0, 0.0)
        assert jousselme_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_singleton_to_vacuous(self):
        # Quadratic form: 1 - 2*0.5 + 1 = 1, so the distance is sqrt(1/2).
        a = MassFunction(1.0, 0.0, 0.0)
        b = MassFunction.vacuous()
        assert jousselme_distance(a, b) == pytest.approx(0.7071067811865476, abs=1e-12)

    @given(a=bbas(), b=bbas())
    def test_symmetric_and_bounded(self, a, b):
        d = jousselme_distance(a, b)
        assert d == jousselme_distance(b, a)
        assert 0.0 <= d <= 1.0 + TOL

    def test_metric_axioms_on_seeded_triples(self):
        """Symmetry, identity, bounds, triangle inequality on 10k triples."""
        rng = random.Random(424242)
        for _ in range(10_000):
            a, b, c = random_bba(rng), random_bba(rng), random_bba(rng)
            d_ab = jousselme_distance(a, b)
            d_ba = jousselme_distance(b, a)
            d_bc = jousselme_distance(b, c)
            d_ac = jousselme_distance(a, c)
            assert abs(d_ab - d_ba) <= TOL
            assert jousselme_distance(a, a) == 0.0
            assert -TOL <= d_ab <= 1.0 + TOL
            assert d_ac <= d_ab + d_bc + TOL
