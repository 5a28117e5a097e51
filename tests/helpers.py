"""Shared strategies, seeded generators, and independent test oracles.

The oracles here deliberately avoid the library's own shortcuts: Dempster
combination is enumerated over all 16 subset pairs of the 4-slot frame, and
set influence is a plain double loop over seeds and all users.  They exist to
check the specialized implementations, so keep them dumb.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from evimax.belief import MassFunction
from evimax.spread import InfluenceField
from evimax.synthetic import generate_synthetic
from tests.oracles import influence


# -- belief oracles ----------------------------------------------------------


def brute_force_dempster(a_vec, b_vec):
    """Combine two 4-slot mass vectors by exhaustive subset-pair enumeration.

    Returns (combined 4-vector, conflict), or (None, conflict) when the
    conflict leaves nothing to renormalize.
    """
    raw = [0.0, 0.0, 0.0, 0.0]
    conflict = 0.0
    for left in range(4):
        for right in range(4):
            product = a_vec[left] * b_vec[right]
            intersection = left & right
            if intersection == 0:
                conflict += product
            else:
                raw[intersection] += product
    if conflict >= 1.0 - 1e-12:
        return None, conflict
    norm = 1.0 - conflict
    return [0.0, raw[1] / norm, raw[2] / norm, raw[3] / norm], conflict


def random_bba(rng: random.Random) -> MassFunction:
    """A uniformly messy valid BBA from a seeded generator."""
    i = rng.random()
    p = rng.random() * (1.0 - i)
    return MassFunction(i, p, (1.0 - i) - p)


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def bbas(draw, max_commitment: float = 1.0):
    """Valid mass functions; ``max_commitment`` bounds i + p from above.

    Any max_commitment < 1 guarantees combination cannot hit total conflict,
    since the conflict of two BBAs is at most the product of their committed
    masses.
    """
    i = draw(
        st.floats(0.0, max_commitment, allow_nan=False, allow_infinity=False)
    )
    room = max(0.0, max_commitment - i)
    p = draw(st.floats(0.0, room, allow_nan=False, allow_infinity=False))
    return MassFunction(i, p, (1.0 - i) - p)


def synthetic_graph(seed: int, n_users: int, n_edges: int, quiet: bool = False):
    """``generate_synthetic``'s graph and activity map.

    ``quiet`` clears every mention and retweet, so those two indicators are
    constant over the edges.
    """
    g, activities = generate_synthetic(seed, n_users, n_edges)
    if quiet:
        g.mentions.clear()
        g.retweets.clear()
    return g, activities


@st.composite
def synthetic_graphs(draw):
    """Small ``synthetic_graph`` graphs with their activity maps.

    Some are quiet, so constant (vacuous) indicators are drawn too.
    """
    n_users = draw(st.integers(2, 30))
    n_edges = draw(st.integers(0, min(60, n_users * (n_users - 1))))
    return synthetic_graph(
        seed=draw(st.integers(0, 2**16)),
        n_users=n_users,
        n_edges=n_edges,
        quiet=draw(st.booleans()),
    )


# -- influence-field generators and oracles ---------------------------------


def safe_weight_bound(n_users: int) -> float:
    """Weight cap under which the spread objective is provably monotone.

    With every weight at most 1/(3n), the influence received by any user
    from any seed set stays below 7/9, so adding a seed never loses more
    than it gains.
    """
    return 1.0 / (3.0 * n_users)


def random_field(
    rng: random.Random,
    n_users: int,
    edge_prob: float = 0.3,
    max_weight: float = 1.0,
) -> InfluenceField:
    """Random directed weighted graph as an InfluenceField."""
    users = [f"n{i:03d}" for i in range(n_users)]
    weights = {}
    for u in users:
        for v in users:
            if u != v and rng.random() < edge_prob:
                weights[(u, v)] = rng.random() * max_weight
    return InfluenceField(users, weights)


def brute_force_influence_on(field: InfluenceField, seeds: set[str], v: str) -> float:
    """Literal double loop over seeds and every user, zero for non-edges."""
    if v in seeds:
        return 1.0
    total = 0.0
    for u in seeds:
        for x in field.users:
            total += influence(field, u, x) * influence(field, x, v)
    return total


def brute_force_sigma(field: InfluenceField, seeds: set[str]) -> float:
    return sum(brute_force_influence_on(field, seeds, v) for v in field.users)
