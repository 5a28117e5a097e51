"""Turn raw edge indicators into a single evidential influence score.

Pipeline, per edge: min-max normalize each indicator over the whole edge set
and read the result as a BBA (normalized value as mass on {influencer}, the
complement on {passive}); estimate each indicator's reliability from its
average Jousselme distance to the other indicators on the same edge; discount
each BBA by its own reliability; combine everything with Dempster's rule.
The influence of u over v is then the combined mass on {influencer}.

Reliability estimation follows "the farther from the others, the less
reliable": with ``c`` the average distance, reliability is
``(1 - c**lam) ** (1/lam)``, a decreasing map of c for any ``lam > 0``.

Two implementations of the pipeline live here.  ``fuse_configs`` and
``fuse_all`` run an inline kernel on plain float triples: it computes the raw
indicators and their bounds once for any number of configs and returns
slotted ``EdgeInfluence`` records that hold the fused masses as floats.
Within one config an edge's record depends only on its raw indicator vector,
so the kernel fuses each distinct vector once, at its first edge in edge
order, and every later edge with that vector shares the result (interaction
counts repeat heavily: 32 distinct vectors among 71,027 edges at paper
scale).
``indicator_bba``, ``average_distances``, ``estimate_reliabilities``,
``edge_bba_sets`` and ``fuse_edge`` build the same records from validated
``MassFunction`` values with the generic operators of ``belief``; they are
the reference the kernel is tested against, equal to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

from .belief import (
    _CONFLICT_EPSILON,
    SUM_TOLERANCE,
    MassFunction,
    combine_dempster,
    discount,
    jousselme_distance,
)
from .graph import SocialGraph, raw_indicators


class OutOfRangeError(ValueError):
    """An indicator value fell outside the normalization bounds."""


class TooFewIndicatorsError(ValueError):
    """Distance-based reliability needs at least two indicators."""


class FusionError(RuntimeError):
    """A per-edge fusion failure, annotated with the offending edge."""


_CONFLICT_LIMIT = 1.0 - _CONFLICT_EPSILON


@dataclass(frozen=True)
class ReliabilityConfig:
    """How per-indicator reliabilities are obtained.

    ``estimated`` mode derives one reliability per indicator per edge from
    pairwise BBA distances; ``fixed`` mode applies the same constant alpha
    everywhere.  ``lam`` shapes the distance-to-reliability map (best results
    around 5).  ``global_reliability`` switches the estimated mode to average
    distances over all edges before mapping, yielding one alpha per indicator
    for the whole graph.
    """

    mode: str = "estimated"
    alpha: float | None = None
    lam: float = 5.0
    global_reliability: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("estimated", "fixed"):
            raise ValueError(f"mode must be 'estimated' or 'fixed', got {self.mode!r}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be finite and positive, got {self.lam!r}")
        if self.mode == "fixed":
            if self.alpha is None:
                raise ValueError("fixed mode requires an alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
            if self.global_reliability:
                raise ValueError("global reliability applies only to estimated mode")
        elif self.alpha is not None:
            raise ValueError("estimated mode takes no alpha")

    @classmethod
    def fixed(cls, alpha: float, lam: float = 5.0) -> "ReliabilityConfig":
        return cls(mode="fixed", alpha=alpha, lam=lam)

    @classmethod
    def estimated(cls, lam: float = 5.0, global_reliability: bool = False) -> "ReliabilityConfig":
        return cls(mode="estimated", lam=lam, global_reliability=global_reliability)

    @classmethod
    def parse(cls, text: str, lam: float = 5.0) -> "ReliabilityConfig":
        """Parse a config token: ``estimated`` or ``fixed:<alpha>``."""
        token = text.strip()
        if token == "estimated":
            return cls.estimated(lam=lam)
        if token.startswith("fixed:"):
            try:
                alpha = float(token[len("fixed:"):])
            except ValueError:
                raise ValueError(f"bad fixed alpha in config token {text!r}") from None
            return cls.fixed(alpha, lam=lam)
        raise ValueError(f"bad config token {text!r}, expected 'estimated' or 'fixed:<alpha>'")

    @property
    def name(self) -> str:
        if self.mode == "fixed":
            return f"fixed:{self.alpha:g}"
        return "estimated" if not self.global_reliability else "estimated-global"


@dataclass(frozen=True)
class EdgeBBASet:
    """One edge's normalized indicator values, their BBAs, and reliabilities."""

    edge: tuple[str, str]
    weights: tuple[float, ...]
    bbas: tuple[MassFunction, ...]
    reliabilities: tuple[float, ...]


@dataclass(slots=True)
class EdgeInfluence:
    """The fused belief state of one edge, its influence, and its inputs.

    ``inf``, ``passive`` and ``omega`` are the fused masses on {influencer},
    {passive} and the whole frame; ``weights`` and ``reliabilities`` are the
    edge's normalized indicator values and the alphas their BBAs were
    discounted by.
    """

    edge: tuple[str, str]
    inf: float
    passive: float
    omega: float
    weights: tuple[float, ...]
    reliabilities: tuple[float, ...]

    @property
    def fused(self) -> MassFunction:
        """The fused BBA, built on demand from the stored masses."""
        return MassFunction(self.inf, self.passive, self.omega)


def _bounds(
    values: dict[tuple[str, str], tuple[float, ...]]
) -> tuple[tuple[float, float], ...]:
    """Each indicator's (min, max) over the edge set; ``()`` for no edges."""
    return tuple((min(col), max(col)) for col in zip(*values.values()))


def indicator_bba(value: float, low: float, high: float) -> MassFunction:
    """BBA for one indicator value under min-max normalization over the edges.

    The normalized value becomes the mass on {influencer}, its complement the
    mass on {passive}.  A degenerate indicator (constant over all edges, so
    ``low == high``) carries no discriminating evidence and yields the
    vacuous BBA.
    """
    if not low <= value <= high:
        raise OutOfRangeError(
            f"value {value!r} outside normalization range [{low!r}, {high!r}]"
        )
    if high == low:
        return MassFunction.vacuous()
    span = high - low
    return MassFunction((value - low) / span, (high - value) / span, 0.0)


def average_distances(bbas: tuple[MassFunction, ...]) -> tuple[float, ...]:
    """Average Jousselme distance from each BBA to all the others.

    The zero self-distance is included in the numerator while the divisor
    stays at n - 1, matching the distance-averaging operator this module
    implements.
    """
    n = len(bbas)
    if n < 2:
        raise TooFewIndicatorsError(
            f"need at least 2 indicators to estimate reliability, got {n}"
        )
    averages = []
    for j, mj in enumerate(bbas):
        total = 0.0
        for i, mi in enumerate(bbas):
            if i != j:
                total += jousselme_distance(mj, mi)
        averages.append(total / (n - 1))
    return tuple(averages)


def reliability_from_distance(c: float, lam: float) -> float:
    """Map an average distance in [0, 1] to a reliability in [0, 1].

    Endpoints return exactly; sub-epsilon excursions outside [0, 1] (the
    distance can overshoot 1 by rounding) are clamped so the fractional
    power never sees a negative base.
    """
    if c <= 0.0:
        return 1.0
    if c >= 1.0:
        return 0.0
    return (1.0 - c**lam) ** (1.0 / lam)


def estimate_reliabilities(
    bbas: tuple[MassFunction, ...], cfg: ReliabilityConfig
) -> tuple[float, ...]:
    """Per-indicator reliabilities for one edge's BBA set."""
    if cfg.mode == "fixed":
        return tuple(cfg.alpha for _ in bbas)
    return tuple(
        reliability_from_distance(c, cfg.lam) for c in average_distances(bbas)
    )


def fuse_edge(ebs: EdgeBBASet) -> EdgeInfluence:
    """Discount each indicator BBA by its reliability and fuse them all.

    Raises:
        TotalConflictError: only reachable when the reliabilities are at or
            very near 1 and the indicators contradict each other.
    """
    discounted = [
        discount(m, alpha) for m, alpha in zip(ebs.bbas, ebs.reliabilities)
    ]
    fused = reduce(combine_dempster, discounted)
    return EdgeInfluence(
        ebs.edge, fused.influencer, fused.passive, fused.omega,
        ebs.weights, ebs.reliabilities,
    )


def edge_bba_sets(g: SocialGraph, cfg: ReliabilityConfig) -> Iterator[EdgeBBASet]:
    """Normalized weights, BBAs, and reliabilities of each edge, in edge order.

    Records are yielded one at a time, so the edge set is never held twice.
    A weight is its BBA's mass on {influencer}, 0 for a constant indicator.
    Global reliability averages the distances over every edge in a pre-pass.
    """
    values = raw_indicators(g)
    bounds = _bounds(values)

    def bbas_of(vec: tuple[float, ...]) -> tuple[MassFunction, ...]:
        return tuple(indicator_bba(x, low, high) for x, (low, high) in zip(vec, bounds))

    shared = None
    if cfg.mode == "estimated" and cfg.global_reliability and values:
        sums = [0.0] * len(bounds)
        for vec in values.values():
            for j, c in enumerate(average_distances(bbas_of(vec))):
                sums[j] += c
        shared = tuple(reliability_from_distance(s / len(values), cfg.lam) for s in sums)

    for edge, vec in values.items():
        bbas = bbas_of(vec)
        yield EdgeBBASet(
            edge,
            tuple(m.influencer for m in bbas),
            bbas,
            shared if shared is not None else estimate_reliabilities(bbas, cfg),
        )


def fuse_configs(
    g: SocialGraph, configs: Iterable[ReliabilityConfig]
) -> Iterator[dict[tuple[str, str], EdgeInfluence]]:
    """Fused influence for every edge, one dict per config, in config order.

    The raw indicators and their normalization bounds are computed once and
    shared by every config; each dict is built only when the next one is
    requested, so a caller that drops it first holds one at a time.

    Raises:
        FusionError: naming the first edge whose sources totally conflict,
            or whose combined masses no longer sum to 1 after a near-total
            conflict (where ``fuse_edge`` raises a ``ValueError``).
    """
    values = raw_indicators(g)
    bounds = _bounds(values)
    for cfg in configs:
        yield _fuse_values(values, bounds, cfg)


def fuse_all(
    g: SocialGraph, cfg: ReliabilityConfig
) -> dict[tuple[str, str], EdgeInfluence]:
    """Fused influence for every edge of the graph; deterministic.

    The one-config case of ``fuse_configs``.
    """
    return next(fuse_configs(g, (cfg,)))


# The kernel below repeats, on plain float triples (influencer, passive,
# omega), the float operations of indicator_bba, average_distances,
# estimate_reliabilities and fuse_edge in the same order, so its records
# equal theirs bit for bit (tests/test_fusion.py checks this).


def _edge_error(edge: tuple[str, str], message: str) -> FusionError:
    return FusionError(f"edge {edge[0]!r} -> {edge[1]!r}: {message}")


def _bba_triples(
    vec: tuple[float, ...], bounds: tuple[tuple[float, float], ...]
) -> list[tuple[float, float, float]]:
    """``indicator_bba`` of each value, as triples."""
    return [
        ((x - low) / (high - low), (high - x) / (high - low), 0.0)
        if high != low else (0.0, 0.0, 1.0)
        for x, (low, high) in zip(vec, bounds)
    ]


def _triple_distances(bbas: list[tuple[float, float, float]]) -> list[float]:
    """``average_distances`` of triples.

    Each pair's Jousselme distance is computed once: it is bitwise symmetric,
    since swapping the arguments only negates every difference.  Each total
    still receives its terms in increasing index order.
    """
    n = len(bbas)
    totals = [0.0] * n
    for j in range(n):
        ij, pj, oj = bbas[j]
        for i in range(j + 1, n):
            ii, pi, oi = bbas[i]
            di, dp, do = ij - ii, pj - pi, oj - oi
            quad = di * di + dp * dp + do * do + di * do + dp * do
            d = (0.5 * quad) ** 0.5 if quad > 0.0 else 0.0
            totals[j] += d
            totals[i] += d
    return [total / (n - 1) for total in totals]


def _fuse_vector(
    edge: tuple[str, str],
    vec: tuple[float, ...],
    bounds: tuple[tuple[float, float], ...],
    shared: tuple[float, ...] | None,
    lam: float,
) -> tuple[float, float, float, tuple[float, ...], tuple[float, ...]]:
    """``(inf, passive, omega, weights, alphas)`` of one indicator vector.

    ``edge`` only names the edge in a ``FusionError``.
    """
    bbas = _bba_triples(vec, bounds)
    alphas = shared if shared is not None else tuple(
        [reliability_from_distance(c, lam) for c in _triple_distances(bbas)]
    )
    # The fold starts from the vacuous BBA and skips vacuous terms
    # (constant indicator or alpha 0): the vacuous BBA is Dempster's
    # neutral element, and combining with it returns the other BBA exactly.
    inf, passive, omega = 0.0, 0.0, 1.0
    for (i, p, o), alpha in zip(bbas, alphas):
        if o or not alpha:
            continue
        # discount(); at alpha 1 this returns the BBA itself exactly.
        i, p, o = alpha * i, alpha * p, 1.0 - alpha
        # combine_dempster(), with its conflict and mass-sum checks.
        conflict = inf * p + passive * i
        if conflict >= _CONFLICT_LIMIT:
            raise _edge_error(
                edge, f"total conflict between sources (K={conflict!r})"
            )
        norm = 1.0 - conflict
        inf, passive, omega = (
            (inf * i + inf * o + omega * i) / norm,
            (passive * p + passive * o + omega * p) / norm,
            (omega * o) / norm,
        )
        # Near-total conflict leaves too few digits in norm for the
        # masses to still sum to 1.
        total = inf + passive + omega
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise _edge_error(edge, f"masses must sum to 1, got {total!r}")
    return inf, passive, omega, tuple([m[0] for m in bbas]), alphas


def _fuse_values(
    values: dict[tuple[str, str], tuple[float, ...]],
    bounds: tuple[tuple[float, float], ...],
    cfg: ReliabilityConfig,
) -> dict[tuple[str, str], EdgeInfluence]:
    # Each distinct raw vector is fused once (see the module docstring).  Key
    # equality implies identical kernel inputs: the raw values are float(int)
    # of nonnegative counts, so there is no -0.0 (equal to 0.0 as a key but
    # not bitwise) and no NaN (never equal to itself).  A vector's first edge
    # in edge order computes it, so a FusionError names the same edge as a
    # per-edge run would.
    lam = cfg.lam
    shared = None
    if cfg.mode == "fixed":
        shared = (cfg.alpha,) * len(bounds)
    elif cfg.global_reliability and values:
        distances: dict[tuple[float, ...], list[float]] = {}
        sums = [0.0] * len(bounds)
        for vec in values.values():
            ds = distances.get(vec)
            if ds is None:
                ds = distances[vec] = _triple_distances(_bba_triples(vec, bounds))
            # One addition per edge, in edge order, as the reference sums.
            for j, c in enumerate(ds):
                sums[j] += c
        shared = tuple(reliability_from_distance(s / len(values), lam) for s in sums)

    fused: dict[tuple[float, ...], tuple] = {}
    out: dict[tuple[str, str], EdgeInfluence] = {}
    for edge, vec in values.items():
        result = fused.get(vec)
        if result is None:
            result = fused[vec] = _fuse_vector(edge, vec, bounds, shared, lam)
        out[edge] = EdgeInfluence(edge, *result)
    return out
