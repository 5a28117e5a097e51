"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they execute.  Every tolerance is pinned here; nothing is
left to later calibration.
"""

from __future__ import annotations

import math
import random
import time

from evimax.belief import (
    MassFunction,
    combine_dempster,
    discount,
    jousselme_distance,
)
from evimax.evaluate import compare_configs, quality_curve, received_totals
from evimax.fusion import (
    ReliabilityConfig,
    estimate_reliabilities,
    fuse_all,
    fuse_edge,
    indicator_bba,
)
from evimax.maximize import select_celf
from evimax.spread import InfluenceField, sigma
from evimax.synthetic import generate_synthetic
from tests.helpers import (
    brute_force_dempster,
    random_bba,
    random_field,
    safe_weight_bound,
)
from tests.oracles import as_vector, fused, select_exhaustive, select_greedy_naive


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_dempster_oracle():
    rng = random.Random(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b = random_bba(rng), random_bba(rng)
        expected, _ = brute_force_dempster(as_vector(a), as_vector(b))
        assert expected is not None
        got = as_vector(combine_dempster(a, b))
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    elapsed = time.perf_counter() - started
    report(
        1,
        "combination matches 16-pair enumeration oracle on 1000 random pairs",
        worst <= 1e-9 and elapsed < 1.0,
        f"max component error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_worked_fusion_numbers():
    tol = 1e-6
    checks = []

    combined = combine_dempster(MassFunction(0.6, 0.0, 0.4), MassFunction(0.5, 0.3, 0.2))
    checks.append(abs(combined.influencer - 0.756098) <= tol)
    checks.append(abs(combined.passive - 0.146341) <= tol)
    checks.append(abs(combined.omega - 0.097561) <= tol)

    halved = discount(MassFunction(0.7, 0.1, 0.2), 0.5)
    checks.append(as_vector(halved)[1:] == (0.35, 0.05, 0.6))

    checks.append(
        abs(jousselme_distance(MassFunction(1, 0, 0), MassFunction(0, 1, 0)) - 1.0) <= tol
    )
    checks.append(
        abs(jousselme_distance(MassFunction(1, 0, 0), MassFunction.vacuous()) - 0.707107)
        <= tol
    )

    interior = indicator_bba(3.0, 0.0, 10.0)
    checks.append(abs(interior.influencer - 0.3) <= tol and abs(interior.passive - 0.7) <= tol)

    # Average distance 0.3 at lambda 5: alpha = (1 - 0.3**5) ** (1/5).
    trio = (
        MassFunction(0.5, 0.5, 0.0),
        MassFunction(0.7, 0.3, 0.0),
        MassFunction(0.9, 0.1, 0.0),
    )
    alphas = estimate_reliabilities(trio, ReliabilityConfig(lam=5.0))
    checks.append(abs(alphas[0] - 0.999514) <= tol)

    fused = fuse_edge(
        (MassFunction(0.6, 0.4, 0.0), MassFunction(0.5, 0.5, 0.0)),
        (1.0, 1.0),
    )
    checks.append(abs(fused.inf - 0.6) <= tol)

    report(
        2,
        "derived belief and fusion numerics reproduce to 1e-6",
        all(checks),
        f"{sum(checks)}/{len(checks)} values",
    )


def test_criterion_3_jousselme_metric_axioms():
    rng = random.Random(103)
    tol = 1e-9
    ok = True
    for _ in range(10_000):
        a, b, c = random_bba(rng), random_bba(rng), random_bba(rng)
        d_ab = jousselme_distance(a, b)
        ok &= abs(d_ab - jousselme_distance(b, a)) <= tol
        ok &= jousselme_distance(a, a) == 0.0
        ok &= -tol <= d_ab <= 1.0 + tol
        ok &= jousselme_distance(a, c) <= d_ab + jousselme_distance(b, c) + tol
        if not ok:
            break
    report(3, "distance passes metric axioms on 10,000 random triples", ok)


def test_criterion_4_monotone_and_submodular_spread():
    rng = random.Random(104)
    tol = 1e-9
    violations = 0
    samples = 0
    for _ in range(100):
        n = rng.randint(3, 12)
        field = random_field(rng, n, 0.35, safe_weight_bound(n))
        users = list(field.users)
        for _ in range(30):
            small = {u for u in users if rng.random() < 0.3}
            grown = small | {u for u in users if u not in small and rng.random() < 0.3}
            outside = [u for u in users if u not in grown]
            if not outside:
                continue
            w = rng.choice(outside)
            samples += 1
            gain_small = sigma(field, small | {w}) - sigma(field, small)
            gain_grown = sigma(field, grown | {w}) - sigma(field, grown)
            if gain_small < -tol or gain_grown < -tol:  # monotonicity
                violations += 1
            if gain_small < gain_grown - tol:  # submodularity
                violations += 1
    report(
        4,
        "spread is monotone and submodular across 100 random graphs",
        violations == 0,
        f"{samples} (S, T, w) samples, {violations} violations",
    )


def test_criterion_5_optimization_oracles():
    started = time.perf_counter()
    rng = random.Random(105)

    mismatches = 0
    for _ in range(100):
        n = rng.randint(2, 30)
        field = random_field(rng, n, rng.uniform(0.05, 0.5), 1.0)
        k = rng.randint(1, 5)
        if select_celf(field, k).users() != select_greedy_naive(field, k).users():
            mismatches += 1

    bound = 1.0 - 1.0 / math.e
    bound_failures = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        field = random_field(rng, n, 0.4, safe_weight_bound(n))
        k = rng.randint(1, min(3, n))
        greedy_value = sigma(field, set(select_celf(field, k).users()))
        optimum = sigma(field, select_exhaustive(field, k))
        if greedy_value < bound * optimum - 1e-9:
            bound_failures += 1

    elapsed = time.perf_counter() - started
    report(
        5,
        "CELF equals naive greedy; greedy within (1 - 1/e) of exhaustive optimum",
        mismatches == 0 and bound_failures == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {bound_failures} bound failures, {elapsed:.1f}s",
    )


def test_criterion_6_degenerate_alpha_algebra():
    rng = random.Random(106)
    g, _ = generate_synthetic(seed=106, n_users=60, n_edges=160)

    zeroed = fuse_all(g, ReliabilityConfig(0.0))
    all_zero = all(r.inf == 0.0 for _, r in zeroed.per_edge(zeroed.records))
    field = InfluenceField.from_graph(zeroed)
    users = list(field.users)
    sigma_is_cardinality = True
    for _ in range(50):
        seeds = {u for u in users if rng.random() < 0.3}
        if sigma(field, seeds) != float(len(seeds)):
            sigma_is_cardinality = False

    exact_at_full_reliability = True
    for _ in range(300):
        bba_tuple = tuple(
            discount(random_bba(rng), 0.95) for _ in range(rng.randint(2, 4))
        )
        plain = bba_tuple[0]
        for m in bba_tuple[1:]:
            plain = combine_dempster(plain, m)
        via_fusion = fused(fuse_edge(
            bba_tuple, estimate_reliabilities(bba_tuple, ReliabilityConfig(1.0))
        ))
        if via_fusion != plain:
            exact_at_full_reliability = False

    report(
        6,
        "alpha=0 zeroes influence with sigma(S) = |S|; alpha=1 is undiscounted fusion",
        all_zero and sigma_is_cardinality and exact_at_full_reliability,
    )


def test_criterion_7_worked_spread_chain():
    chain = InfluenceField("abc", {("a", "b"): 0.5, ("b", "c"): 0.4})
    spread_value = sigma(chain, {"a"})
    selection = select_celf(chain, 1)
    report(
        7,
        "chain a->b(0.5), b->c(0.4): sigma({a}) = 2.2 and CELF picks a",
        abs(spread_value - 2.2) <= 1e-12 and selection.users() == ["a"],
        f"sigma {spread_value!r}",
    )


def test_criterion_8_scale_check():
    g, activities = generate_synthetic(seed=1001, n_users=36274, n_edges=71027)
    started = time.perf_counter()
    influences = fuse_all(g, ReliabilityConfig(lam=5.0))
    field = InfluenceField.from_graph(influences)
    selection = select_celf(field, 50)
    curve = quality_curve(selection.users(), activities, received_totals(g, selection.users()))
    elapsed = time.perf_counter() - started
    monotone = all(
        all(a <= b for a, b in zip(series, series[1:]))
        for series in zip(*curve)
    )
    report(
        8,
        "36,274-user / 71,027-edge pipeline to 50 seeds under 120 s, monotone curves",
        len(selection) == 50 and elapsed < 120.0 and monotone,
        f"{elapsed:.1f}s",
    )


def test_criterion_9_estimated_alpha_beats_zero_alpha():
    g, activities = generate_synthetic(seed=2026, n_users=6000, n_edges=12000)
    entries = compare_configs(
        g,
        activities,
        [ReliabilityConfig(0.0), ReliabilityConfig(lam=5.0)],
        k=50,
    )
    # The first cell of a curve row is its accumulated follows.
    by_name = {entry.name: entry.curve for entry in entries}
    fixed0 = by_name["fixed:0"][-1][0]
    estimated = by_name["estimated"][-1][0]
    report(
        9,
        "estimated-alpha accumulated follows at rank 50 >= fixed alpha=0 baseline",
        estimated >= fixed0,
        f"estimated {estimated} vs fixed:0 {fixed0}",
    )
