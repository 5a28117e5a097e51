"""Test-only views and slow reference algorithms over the evimax types.

The package holds only the pipeline that ``select``, ``evaluate`` and
``dump-edges`` run.  What exists only to check it lives here: subset-indexed
views of a mass function, graph equality and common neighbours read off the
public user and edge lists, the fused BBA of a record, the literal per-user
influence, and the naive and exhaustive seed selections.
``select_greedy_naive`` uses CELF's own ``_SelectionState``, so the two agree
bit for bit.
"""

from __future__ import annotations

import itertools
import math

from evimax.belief import MassFunction
from evimax.fusion import EdgeInfluence
from evimax.graph import SocialGraph, UnknownUserError
from evimax.maximize import SeedChoice, SeedSelection, _effective_k, _SelectionState
from evimax.spread import InfluenceField, sigma

# -- belief ------------------------------------------------------------------

# Subset bitmasks of the frame; bit 0 = influencer, bit 1 = passive.
EMPTY = 0
INFLUENCER = 1
PASSIVE = 2
OMEGA = 3


def mass(m: MassFunction, subset: int) -> float:
    """Mass on a subset given as a bitmask (``EMPTY`` .. ``OMEGA``)."""
    if subset == INFLUENCER:
        return m.influencer
    if subset == PASSIVE:
        return m.passive
    if subset == OMEGA:
        return m.omega
    if subset == EMPTY:
        return 0.0
    raise ValueError(f"not a subset of the frame: {subset!r}")


def as_vector(m: MassFunction) -> tuple[float, float, float, float]:
    """Dense 4-slot vector indexed by subset bitmask."""
    return (0.0, m.influencer, m.passive, m.omega)


def is_vacuous(m: MassFunction, tolerance: float = 0.0) -> bool:
    return m.omega >= 1.0 - tolerance


# -- graph -------------------------------------------------------------------


def require_user(g: SocialGraph, user: str) -> None:
    if user not in g.users:
        raise UnknownUserError(f"unknown user: {user!r}")


def same_graph(a: SocialGraph, b: SocialGraph) -> bool:
    """Same users, edges and counters, in any insertion order."""
    return (
        set(a.users) == set(b.users)
        and set(a.edges()) == set(b.edges())
        and a.mentions == b.mentions
        and a.retweets == b.retweets
    )


def common_neighbors(g: SocialGraph, u: str, v: str) -> int:
    """Number of users adjacent (in either direction) to both u and v.

    The neighbours are read off the public edge list on each call,
    independently of the sets ``raw_indicators`` builds.
    """
    require_user(g, u)
    require_user(g, v)

    def neighbors(x: str) -> set[str]:
        return {b if a == x else a for a, b in g.edges() if x in (a, b)}

    return len(neighbors(u) & neighbors(v))


# -- fusion ------------------------------------------------------------------


def fused(record: EdgeInfluence) -> MassFunction:
    """The fused BBA, built from the record's stored masses."""
    return MassFunction(record.inf, record.passive, record.omega)


# -- spread ------------------------------------------------------------------


class AlreadyInSetError(ValueError):
    """Marginal gain was requested for a user already in the seed set."""


def influence(field: InfluenceField, a: str, b: str) -> float:
    """Pairwise influence: 1 on the diagonal, edge weight or 0 elsewhere."""
    if a == b:
        return 1.0
    for v, w in field._out.get(a, ()):
        if v == b:
            return w
    return 0.0


def influence_on(field: InfluenceField, seeds: set[str], v: str) -> float:
    """Influence of the seed set on one user, evaluated literally.

    v's in-edges are read off the out-adjacency, so this route and
    ``sigma``'s frontier expansion can check each other.
    """
    field._require_seeds(seeds)
    field._require(v)
    if v in seeds:
        return 1.0
    in_edges = [(x, w) for x, out in field._out.items() for y, w in out if y == v]
    total = 0.0
    # Sorted seed order keeps float accumulation reproducible across
    # processes (set iteration order is hash-randomized).
    for u in sorted(seeds):
        for x, w_xv in in_edges:
            total += influence(field, u, x) * w_xv
        total += influence(field, u, v)  # x = v term, self-influence is 1
    return total


def marginal_gain(field: InfluenceField, seeds: set[str], w: str) -> float:
    """Spread increase from adding w to the seed set."""
    field._require(w)
    if w in seeds:
        raise AlreadyInSetError(f"user {w!r} is already a seed")
    return sigma(field, seeds | {w}) - sigma(field, seeds)


# -- maximize ----------------------------------------------------------------


class TooLargeError(ValueError):
    """Exhaustive search was asked to enumerate too many subsets."""


def select_greedy_naive(influence_field: InfluenceField, k: int) -> SeedSelection:
    """Plain greedy: every round rescans every remaining candidate."""
    k_eff = _effective_k(influence_field, k)
    state = _SelectionState(influence_field)

    choices: list[SeedChoice] = []
    while len(choices) < k_eff:
        best: tuple[float, str] | None = None
        for u in influence_field.users:
            if u in state.seeds:
                continue
            entry = (-state.gain(u), u)
            if best is None or entry < best:
                best = entry
        assert best is not None
        neg_gain, u = best
        cumulative = state.commit(u, -neg_gain)
        choices.append(SeedChoice(len(choices) + 1, u, -neg_gain, cumulative))
    return SeedSelection(choices, gain_evaluations=state.evaluations)


def select_exhaustive(influence_field: InfluenceField, k: int) -> set[str]:
    """True spread-optimal size-k subset, for small instances only.

    Ties resolve to the lexicographically first subset in user-id order.
    """
    k_eff = _effective_k(influence_field, k)
    n = influence_field.num_users()
    if math.comb(n, k_eff) > 10**6:
        raise TooLargeError(
            f"C({n}, {k_eff}) subsets exceed the exhaustive-search budget"
        )
    ordered = sorted(influence_field.users)
    best_set: tuple[str, ...] | None = None
    best_sigma = -math.inf
    for combo in itertools.combinations(ordered, k_eff):
        value = sigma(influence_field, set(combo))
        if value > best_sigma:
            best_sigma = value
            best_set = combo
    assert best_set is not None
    return set(best_set)
