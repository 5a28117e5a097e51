"""Test-only views and slow reference algorithms over the evimax types.

The package holds only the pipeline that ``select``, ``evaluate`` and
``dump-edges`` run.  What exists only to check it lives here: subset-indexed
views of a mass function, graph equality and common neighbours read off the
public user and edge lists, the raw indicators converted edge by edge, the
fused BBA of a record, the literal per-user influence, a field that keeps
its zero weights, the singleton spread bounds with every zero-weight term
added, the naive and exhaustive seed selections, and the row-by-row CSV
loader that ``load_graph``'s per-file loops replaced.
``select_greedy_naive`` uses CELF's own ``_SelectionState``, so the two agree
bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator

from evimax.belief import MassFunction
from evimax.fusion import EdgeInfluence
from evimax.graph import (
    ParseError,
    SocialGraph,
    UnknownUserError,
    UserActivity,
    _count,
    raw_indicators,
)
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


def raw_indicators_reference(
    g: SocialGraph,
) -> tuple[list[tuple[float, float, float]], list[int]]:
    """``raw_indicators`` keyed edge by edge by the float triple itself.

    The vectors are converted per edge and numbered in first-edge order, so
    distinct counts that read as one float triple share a vector by
    construction.
    """
    ids: dict[tuple[float, float, float], int] = {}
    column = [
        ids.setdefault(
            (float(common_neighbors(g, u, v)), float(g.mentions.get((u, v), 0)),
             float(g.retweets.get((u, v), 0))),
            len(ids),
        )
        for u, v in g.edges()
    ]
    return list(ids), column


def indicator_map(g: SocialGraph) -> dict[tuple[str, str], tuple[float, float, float]]:
    """``raw_indicators`` as one vector per edge, keyed by the graph's edges in order."""
    vectors, column = raw_indicators(g)
    return {edge: vectors[i] for edge, i in zip(g.edges(), column)}


def _rows(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for every non-blank data row."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(path, 1, f"missing header, expected {','.join(header)}")
        if tuple(cell.strip() for cell in first) != header:
            raise ParseError(
                path, 1, f"bad header {first!r}, expected {','.join(header)}"
            )
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise ParseError(
                    path, reader.line_num, f"expected {len(header)} columns, got {len(cells)}"
                )
            yield reader.line_num, cells


def load_graph_reference(
    edges_path: str | Path,
    mentions_path: str | Path | None = None,
    retweets_path: str | Path | None = None,
    activity_path: str | Path | None = None,
) -> tuple[SocialGraph, dict[str, UserActivity]]:
    """``load_graph`` as one generator of stripped, width-checked rows per file.

    As in ``load_graph``, only users with an activity row get a record.
    """
    g = SocialGraph()
    for line, (src, dst) in _rows(edges_path, ("src", "dst")):
        if src == dst:
            raise ParseError(edges_path, line, f"self-loop edge {src!r}")
        if not src or not dst:
            raise ParseError(edges_path, line, "empty user id")
        g.add_edge(src, dst)

    for path, header, add, verb in (
        (mentions_path, ("mentioner", "mentioned", "count"), g.add_mentions, "mention"),
        (retweets_path, ("retweeter", "original_author", "count"), g.add_retweets, "retweet"),
    ):
        if path is None:
            continue
        for line, (actor, target, text) in _rows(path, header):
            if actor == target:
                raise ParseError(path, line, f"self-{verb} by {actor!r}")
            if not actor or not target:
                raise ParseError(path, line, "empty user id")
            count = _count(path, line, text, "count")
            try:
                add(target, actor, count)
            except ValueError as exc:  # a total beyond the float range
                raise ParseError(path, line, str(exc)) from None

    activities: dict[str, UserActivity] = {}
    if activity_path is not None:
        for line, (user, tweets, followers) in _rows(
            activity_path, ("user", "tweets", "followers")
        ):
            if not user:
                raise ParseError(activity_path, line, "empty user id")
            user = g.add_user(user)
            record = activities.setdefault(user, UserActivity(user))
            record.tweets = _count(activity_path, line, tweets, "tweets")
            record.followers = _count(activity_path, line, followers, "followers")
    return g, activities


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


def field_with_zeros(
    users: Iterable[str], weighted_edges: Iterable[tuple[tuple[str, str], float]]
) -> InfluenceField:
    """A field that keeps every zero-weight edge, in the order given.

    Both ``InfluenceField`` constructors drop zero weights; this one fills
    the adjacency past them, as the field stored it before they did, so the
    zero-free field can be checked against it.
    """
    field = InfluenceField(users, {})
    for (u, v), w in weighted_edges:
        field._out[u].append((v, w))
    return field


def reordered_sum_tolerance(n_terms: int, magnitude: float) -> float:
    """Widest gap between two float sums of the same nonnegative terms.

    Each sum of n terms, in any order, lies within a factor
    (1 +- 2**-53)**(n - 1) of the exact sum, so two orders of the same terms
    differ by at most about 2 * (n - 1) * 2**-53 times a sum no larger than
    ``magnitude``; 4 * n * 2**-53 leaves room for the second-order terms.
    """
    return 4 * n_terms * 2.0**-53 * magnitude


def singleton_spread_bounds_reference(field: InfluenceField) -> dict[str, float]:
    """``singleton_spread_bounds`` with every out-edge's term added, zero or not.

    Every user is walked, and E in the margin counts the nonzero weights,
    so a field from ``field_with_zeros`` gets the bounds of its zero-free
    twin.
    """
    out = field._out
    two_plus_sums: dict[str, float] = {}
    for x, edges in out.items():
        total = 0.0
        for _, w in edges:
            total += w
        two_plus_sums[x] = 2.0 + total
    stored = sum(1 for edges in out.values() for _, w in edges if w)
    margin = 1.0 + (2 * stored + 3) * 2.0**-52
    bounds: dict[str, float] = {}
    for u, edges in out.items():
        total = 0.0
        for x, w in edges:
            total += w * two_plus_sums[x]
        bounds[u] = (1.0 + total) * margin if total else 1.0
    return bounds


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
    k_eff = _effective_k(influence_field.num_users(), k)
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
    k_eff = _effective_k(influence_field.num_users(), k)
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
