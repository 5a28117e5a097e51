"""Test-only views and slow reference algorithms over the evimax types.

The package holds only the pipeline that ``select``, ``evaluate`` and
``dump-edges`` run.  What exists only to check it lives here: subset-indexed
views of a mass function, the Jousselme distance with its square root
rounded exactly once, Dempster's rule in exact arithmetic, a builder of
mention and retweet counts, graph equality and common neighbours read off
the public user and edge lists, the raw indicators read edge by edge, the
fused BBA of a record, a vector's fused influence under a fixed alpha in
exact arithmetic, the literal per-user influence, a field that keeps its
zero weights, the singleton spread bounds with every zero-weight term added,
the naive, exact, single-heap and exhaustive seed selections, and the
row-by-row CSV loader that ``load_graph``'s per-file loops replaced.
``select_greedy_naive`` adds its seeds and reads its gains through
``spread._SelectionState``, as CELF does, so the two agree bit for bit;
``select_greedy_exact`` shares none of CELF's code.
``sigma_accumulated_reference`` is ``sigma``'s accumulation written out in
loops of its own, which ``sigma`` must match bit for bit.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from evimax.belief import MassFunction
from evimax.fusion import EdgeInfluence
from evimax.graph import (
    ParseError,
    SocialGraph,
    UnknownUserError,
    _count,
    raw_indicators,
)
from evimax.maximize import SeedChoice, SeedSelection, _check_k
from evimax.spread import InfluenceField, _SelectionState, sigma

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


def jousselme_distance_exact(a: MassFunction, b: MassFunction) -> float:
    """The Jousselme distance with ``belief``'s float quadratic form, then the
    exact square root of half of it, rounded to the nearest float once.

    Half the form is an integer over a power of two at most 2**1074, so
    ``scaled`` is it times 4**600 exactly, and ``root`` the floor of its
    square root times 2**600.  A nonzero root is at least 2**63, so every
    rounding midpoint of a float near it is a whole number of its units; an
    inexact root therefore rounds as root + 1/2 does, which ``Fraction``'s
    ``float`` rounds once.
    """
    di = a.influencer - b.influencer
    dp = a.passive - b.passive
    do = a.omega - b.omega
    quad = max(0.0, di * di + dp * dp + do * do + di * do + dp * do)
    n, d = (0.5 * quad).as_integer_ratio()
    scaled = n * 4**600 // d
    root = math.isqrt(scaled)
    if root * root == scaled:
        return float(Fraction(root, 2**600))
    return float(Fraction(2 * root + 1, 2**601))


def combine_dempster_exact(
    a: MassFunction, b: MassFunction
) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction] | None]:
    """``combine_dempster``'s formula in exact arithmetic on the stored floats.

    Returns the conflict K and the fused masses on {influencer}, {passive}
    and the whole frame, or None for the masses when K is at least 1.  Each
    float step of ``combine_dempster`` rounds a value this computes exactly,
    so its result can be bounded against these masses.
    """
    ai, ap, ao = map(Fraction, (a.influencer, a.passive, a.omega))
    bi, bp, bo = map(Fraction, (b.influencer, b.passive, b.omega))
    conflict = ai * bp + ap * bi
    if conflict >= 1:
        return conflict, None
    norm = 1 - conflict
    return conflict, (
        (ai * bi + ai * bo + ao * bi) / norm,
        (ap * bp + ap * bo + ao * bp) / norm,
        ao * bo / norm,
    )


# -- graph -------------------------------------------------------------------


def require_user(g: SocialGraph, user: str) -> None:
    if user not in g.users:
        raise UnknownUserError(f"unknown user: {user!r}")


def num_edges(g: SocialGraph) -> int:
    return sum(1 for _ in g.edges())


def add_count(
    counts: dict[tuple[str, str], int], g: SocialGraph, src: str, dst: str, n: int
) -> None:
    """Add ``n`` to edge src -> dst's entry of ``counts`` (``g.mentions`` or
    ``g.retweets``), creating the edge; a zero creates the edge only, as a
    row of the loader does."""
    edge = g.add_edge(src, dst)
    if n:
        counts[edge] = counts.get(edge, 0) + n


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
    independently of the pairs ``raw_indicators`` holds.
    """
    require_user(g, u)
    require_user(g, v)

    def neighbors(x: str) -> set[str]:
        return {b if a == x else a for a, b in g.edges() if x in (a, b)}

    return len(neighbors(u) & neighbors(v))


def raw_indicators_reference(
    g: SocialGraph,
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """``raw_indicators`` keyed edge by edge by the int triple itself.

    The vectors are read per edge, common neighbours off the edge list, and
    numbered in first-edge order.
    """
    ids: dict[tuple[int, int, int], int] = {}
    column = [
        ids.setdefault(
            (common_neighbors(g, u, v), g.mentions.get((u, v), 0), g.retweets.get((u, v), 0)),
            len(ids),
        )
        for u, v in g.edges()
    ]
    return list(ids), column


def indicator_map(g: SocialGraph) -> dict[tuple[str, str], tuple[int, int, int]]:
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
) -> tuple[SocialGraph, dict[str, tuple[int, int]]]:
    """``load_graph`` as one generator of stripped, width-checked rows per file.

    As in ``load_graph``, only users with an activity row get a
    ``(tweets, followers)`` pair.
    """
    g = SocialGraph()
    for line, (src, dst) in _rows(edges_path, ("src", "dst")):
        if src == dst:
            raise ParseError(edges_path, line, f"self-loop edge {src!r}")
        if not src or not dst:
            raise ParseError(edges_path, line, "empty user id")
        g.add_edge(src, dst)

    for path, header, counts, verb in (
        (mentions_path, ("mentioner", "mentioned", "count"), g.mentions, "mention"),
        (retweets_path, ("retweeter", "original_author", "count"), g.retweets, "retweet"),
    ):
        if path is None:
            continue
        for line, (actor, target, text) in _rows(path, header):
            if actor == target:
                problem = f"self-{verb} by {actor!r}" if actor else "empty user id"
                raise ParseError(path, line, problem)
            if not actor or not target:
                raise ParseError(path, line, "empty user id")
            add_count(counts, g, target, actor, _count(path, line, text, "count"))
            if counts.get((target, actor), 0) > int(sys.float_info.max):
                raise ParseError(
                    path, line, f"{verb} total of {target!r} by {actor!r} exceeds the "
                    f"largest float ({sys.float_info.max:g})"
                )

    activities: dict[str, tuple[int, int]] = {}
    if activity_path is not None:
        for line, (user, tweets, followers) in _rows(
            activity_path, ("user", "tweets", "followers")
        ):
            if not user:
                raise ParseError(activity_path, line, "empty user id")
            user = g.add_user(user)
            activities[user] = (
                _count(activity_path, line, tweets, "tweets"),
                _count(activity_path, line, followers, "followers"),
            )
    return g, activities


# -- fusion ------------------------------------------------------------------


def fused(record: EdgeInfluence) -> MassFunction:
    """The fused BBA, built from the record's stored masses."""
    return MassFunction(record.inf, record.passive, record.omega)


def fixed_alpha_inf_exact(
    vec: tuple[int, ...], bounds: tuple[tuple[int, int], ...], alpha: float
) -> Fraction:
    """The fused ``inf`` of a raw vector under a fixed alpha, in exact arithmetic.

    Min-max BBAs (vacuous for a constant indicator), each discounted by
    ``alpha``, then Dempster's rule in the vector's order, all as fractions.
    """
    a = Fraction(alpha)
    masses = []
    for x, (low, high) in zip(vec, bounds):
        i, p, o = (
            (Fraction(0), Fraction(0), Fraction(1))
            if high == low
            else (Fraction(x - low, high - low), Fraction(high - x, high - low), Fraction(0))
        )
        masses.append((a * i, a * p, 1 - a * (1 - o)))
    i, p, o = masses[0]
    for bi, bp, bo in masses[1:]:
        norm = 1 - (i * bp + p * bi)
        i, p, o = (
            (i * bi + i * bo + o * bi) / norm,
            (p * bp + p * bo + o * bp) / norm,
            o * bo / norm,
        )
    return i


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
    the adjacency and the out-weight sums past them, as the field stored
    them before they did, so the zero-free field can be checked against it.
    A user whose out-weights are all zeros gets an out-list here.
    """
    field = InfluenceField(users, {})
    field._fill(weighted_edges)
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

    Every user is walked, in user order, and each out-weight sum is taken
    again from the out-lists; E in the margin counts the nonzero weights,
    and a user gets a bound only if a nonzero term reached it, so a field
    from ``field_with_zeros`` gets the bounds of its zero-free twin.
    """
    out = field._out
    two_plus_sums: dict[str, float] = {}
    for x in field.users:
        total = 0.0
        for _, w in out.get(x, ()):
            total += w
        two_plus_sums[x] = 2.0 + total
    stored = sum(1 for edges in out.values() for _, w in edges if w)
    margin = 1.0 + (2 * stored + 3) * 2.0**-52
    bounds: dict[str, float] = {}
    for u in field.users:
        total = 0.0
        for x, w in out.get(u, ()):
            total += w * two_plus_sums[x]
        if total:
            bounds[u] = (1.0 + total) * margin
    return bounds


def sigma_accumulated_reference(field: InfluenceField, seeds: set[str]) -> float:
    """``sigma`` with its accumulation written out, independent of ``_SelectionState``.

    Each seed's ``seed_contributions``, in sorted seed order, is added into one
    dict, and the entries of the users outside the set are added to |S| in the
    order each was first reached: the same float operations in the same order.
    """
    acc: dict[str, float] = {}
    for u in sorted(seeds):
        for v, c in field.seed_contributions(u).items():
            acc[v] = acc.get(v, 0.0) + c
    total = float(len(seeds))
    for v, value in acc.items():
        if v not in seeds:
            total += value
    return total


def influence_on(field: InfluenceField, seeds: set[str], v: str) -> float:
    """Influence of the seed set on one user, evaluated literally.

    v's in-edges are read off the out-adjacency, so this route and
    ``sigma``'s frontier expansion can check each other.
    """
    for u in [*sorted(seeds), v]:
        if u not in field.users:
            raise UnknownUserError(f"unknown user: {u!r}")
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
    if w not in field.users:
        raise UnknownUserError(f"unknown user: {w!r}")
    if w in seeds:
        raise AlreadyInSetError(f"user {w!r} is already a seed")
    return sigma(field, seeds | {w}) - sigma(field, seeds)


# -- maximize ----------------------------------------------------------------


class TooLargeError(ValueError):
    """Exhaustive search was asked to enumerate too many subsets."""


def select_greedy_naive(influence_field: InfluenceField, k: int) -> SeedSelection:
    """Plain greedy: every round rescans every remaining candidate."""
    k_eff = min(_check_k(k), influence_field.num_users())
    state = _SelectionState(influence_field)

    spread = 0.0
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
        state.add(u)
        spread += -neg_gain
        choices.append(SeedChoice(len(choices) + 1, u, -neg_gain, spread))
    return SeedSelection(choices, gain_evaluations=state.evaluations)


def select_greedy_exact(
    influence_field: InfluenceField, k: int
) -> list[tuple[str, Fraction, Fraction | None]]:
    """The greedy in exact arithmetic on the field's stored weights.

    A gain is sigma(S + w) - sigma(S) for the literal spread of ``spread``'s
    docstring: |S| plus, over v outside S, seeds u and every user x,
    I(u, x) * I(x, v), with I(a, a) = 1 and I(a, b) the stored weight read as
    a ``Fraction``, or 0.  The larger gain wins, then the smaller id.  Each
    rank gives its seed, its gain and its margin over the runner-up (None
    with no other candidate left).  It shares nothing with ``select_celf``:
    neither ``_SelectionState`` nor ``seed_contributions``.
    """
    users = list(influence_field.users)
    weight = {(a, b): Fraction(influence(influence_field, a, b)) for a in users for b in users}
    two_hop = {
        (u, v): sum(weight[u, x] * weight[x, v] for x in users) for u in users for v in users
    }

    def spread(seeds: set[str]) -> Fraction:
        return len(seeds) + sum(two_hop[u, v] for v in users if v not in seeds for u in seeds)

    ranks: list[tuple[str, Fraction, Fraction | None]] = []
    seeds: set[str] = set()
    current = Fraction(0)
    for _ in range(min(k, len(users))):
        candidates = sorted(
            ((spread(seeds | {w}) - current, w) for w in users if w not in seeds),
            key=lambda candidate: (-candidate[0], candidate[1]),
        )
        gain, w = candidates[0]
        ranks.append((w, gain, gain - candidates[1][0] if len(candidates) > 1 else None))
        seeds.add(w)
        current += gain
    return ranks


def select_celf_single_heap(influence_field: InfluenceField, k: int) -> SeedSelection:
    """CELF with every user in one heap from the start.

    A user with a bound starts stale at it; every other user starts fresh at
    its round-0 gain of exactly 1.0.  ``select_celf`` adds those users to
    its heap only once one of them can be the top, and must pop the same
    entries in the same order.
    """
    k_eff = min(_check_k(k), influence_field.num_users())
    state = _SelectionState(influence_field)
    bounds = influence_field.singleton_spread_bounds()
    heap = [
        (-bounds[u], u, -1) if u in bounds else (-1.0, u, 0)
        for u in influence_field.users
    ]
    heapq.heapify(heap)

    spread = 0.0
    choices: list[SeedChoice] = []
    while len(choices) < k_eff:
        neg_gain, u, stamp = heapq.heappop(heap)
        if stamp == len(state.seeds):
            state.add(u)
            spread += -neg_gain
            choices.append(SeedChoice(len(choices) + 1, u, -neg_gain, spread))
        else:
            heapq.heappush(heap, (-state.gain(u), u, len(state.seeds)))
    return SeedSelection(choices, gain_evaluations=state.evaluations)


def final_sigma(selection: SeedSelection) -> float:
    """The spread of the whole selection: the last cumulative sigma, 0 for none."""
    return selection.choices[-1].cumulative_sigma if selection.choices else 0.0


def select_exhaustive(influence_field: InfluenceField, k: int) -> set[str]:
    """True spread-optimal size-k subset, for small instances only.

    Ties resolve to the lexicographically first subset in user-id order.
    """
    k_eff = min(_check_k(k), influence_field.num_users())
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
