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

One implementation of the pipeline lives here, on ``belief``'s
``MassFunction`` operators: ``indicator_bba``, ``estimate_reliabilities`` and
``fuse_edge`` for one edge, ``edge_bba_sets`` for every edge's inputs, and
``fuse_configs`` / ``fuse_all`` for every edge's ``EdgeInfluence`` record.
``fuse_configs`` computes the raw indicators and their bounds once for any
number of configs.  Within one config an edge's record depends only on its
raw indicator vector, so each distinct vector is fused once, at its first
edge in edge order, and every edge with that vector maps to that one frozen
record.  Interaction counts repeat heavily: the generated workloads have 32
distinct vectors among 71,027 edges at paper scale and 32 among 400,000 at
five times that, so ``fuse_edge`` runs 32 times per config there (about
1 ms in all on a 2.0 GHz Xeon), 32 records are built, and each edge costs
a dict lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

from .belief import MassFunction, combine_dempster, discount, jousselme_distance
from .graph import SocialGraph, raw_indicators


class OutOfRangeError(ValueError):
    """An indicator value fell outside the normalization bounds."""


class TooFewIndicatorsError(ValueError):
    """Distance-based reliability needs at least two indicators."""


class FusionError(RuntimeError):
    """A per-edge fusion failure, annotated with the offending edge."""


@dataclass(frozen=True)
class ReliabilityConfig:
    """How per-indicator reliabilities are obtained.

    With ``alpha`` set, the same constant reliability applies everywhere
    (``fixed``); with ``alpha`` None, one reliability per indicator per edge
    is estimated from pairwise BBA distances (``estimated``).  ``lam`` shapes
    the distance-to-reliability map (best results around 5).
    ``global_reliability`` makes the estimate average distances over all
    edges before mapping, yielding one alpha per indicator for the whole
    graph.
    """

    alpha: float | None = None
    lam: float = 5.0
    global_reliability: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be finite and positive, got {self.lam!r}")
        if self.alpha is not None:
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
            if self.global_reliability:
                raise ValueError("global reliability applies only to estimated mode")

    @classmethod
    def fixed(cls, alpha: float, lam: float = 5.0) -> "ReliabilityConfig":
        return cls(alpha=alpha, lam=lam)

    @classmethod
    def estimated(cls, lam: float = 5.0, global_reliability: bool = False) -> "ReliabilityConfig":
        return cls(lam=lam, global_reliability=global_reliability)

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
        if self.alpha is not None:
            # ``:g`` keeps 6 significant digits; a longer alpha gets the
            # shortest text that parses back to it, so names stay distinct.
            text = f"{self.alpha:g}"
            return f"fixed:{text if float(text) == self.alpha else repr(self.alpha)}"
        return "estimated" if not self.global_reliability else "estimated-global"


@dataclass(frozen=True)
class EdgeBBASet:
    """One edge's normalized indicator values, their BBAs, and reliabilities."""

    weights: tuple[float, ...]
    bbas: tuple[MassFunction, ...]
    reliabilities: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class EdgeInfluence:
    """The fused belief state of an edge, its influence, and its inputs.

    ``inf``, ``passive`` and ``omega`` are the fused masses on {influencer},
    {passive} and the whole frame; ``weights`` and ``reliabilities`` are the
    edge's normalized indicator values and the alphas their BBAs were
    discounted by.  A record carries no edge: ``fuse_all`` shares one record
    among all edges with the same indicator vector, under their edge keys.
    """

    inf: float
    passive: float
    omega: float
    weights: tuple[float, ...]
    reliabilities: tuple[float, ...]


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
    if cfg.alpha is not None:
        return tuple(cfg.alpha for _ in bbas)
    return tuple(
        reliability_from_distance(c, cfg.lam) for c in average_distances(bbas)
    )


def fuse_edge(ebs: EdgeBBASet) -> EdgeInfluence:
    """Discount each indicator BBA by its reliability and fuse them all.

    Raises:
        TotalConflictError: only reachable when the reliabilities are at or
            very near 1 and the indicators contradict each other.
        ValueError: from ``MassFunction``'s sum check, when a near-total
            conflict leaves too few digits in Dempster's normalizer for the
            combined masses to still sum to 1.
    """
    discounted = [
        discount(m, alpha) for m, alpha in zip(ebs.bbas, ebs.reliabilities)
    ]
    fused = reduce(combine_dempster, discounted)
    return EdgeInfluence(
        fused.influencer, fused.passive, fused.omega, ebs.weights, ebs.reliabilities
    )


def _indicator_bbas(
    vec: tuple[float, ...], bounds: tuple[tuple[float, float], ...]
) -> tuple[MassFunction, ...]:
    return tuple(indicator_bba(x, low, high) for x, (low, high) in zip(vec, bounds))


def _edge_bba_set(
    vec: tuple[float, ...],
    bounds: tuple[tuple[float, float], ...],
    cfg: ReliabilityConfig,
    shared: tuple[float, ...] | None,
) -> EdgeBBASet:
    """The ``EdgeBBASet`` of a raw vector; ``shared`` holds estimated-global alphas."""
    bbas = _indicator_bbas(vec, bounds)
    return EdgeBBASet(
        tuple(m.influencer for m in bbas),
        bbas,
        shared if shared is not None else estimate_reliabilities(bbas, cfg),
    )


def _global_alphas(
    values: dict[tuple[str, str], tuple[float, ...]],
    bounds: tuple[tuple[float, float], ...],
    cfg: ReliabilityConfig,
) -> tuple[float, ...] | None:
    """The alphas every edge shares under global reliability, else ``None``.

    Each distinct vector's average distances are computed once, but they are
    added into the sums once per edge, in edge order.
    """
    if not (cfg.global_reliability and values):
        return None
    distances: dict[tuple[float, ...], tuple[float, ...]] = {}
    sums = [0.0] * len(bounds)
    for vec in values.values():
        ds = distances.get(vec)
        if ds is None:
            ds = distances[vec] = average_distances(_indicator_bbas(vec, bounds))
        for j, c in enumerate(ds):
            sums[j] += c
    return tuple(reliability_from_distance(s / len(values), cfg.lam) for s in sums)


def edge_bba_sets(
    g: SocialGraph, cfg: ReliabilityConfig
) -> Iterator[tuple[tuple[str, str], EdgeBBASet]]:
    """Each edge with its normalized weights, BBAs, and reliabilities, in edge order.

    Pairs are yielded one at a time, so the edge set is never held twice.
    A weight is its BBA's mass on {influencer}, 0 for a constant indicator.
    Global reliability averages the distances over every edge in a pre-pass.
    """
    values = raw_indicators(g)
    bounds = _bounds(values)
    shared = _global_alphas(values, bounds, cfg)
    for edge, vec in values.items():
        yield edge, _edge_bba_set(vec, bounds, cfg, shared)


def fuse_configs(
    g: SocialGraph, configs: Iterable[ReliabilityConfig]
) -> Iterator[dict[tuple[str, str], EdgeInfluence]]:
    """Fused influence for every edge, one dict per config, in config order.

    The raw indicators and their normalization bounds are computed once and
    shared by every config; each dict is built only when the next one is
    requested, so a caller that drops it first holds one at a time.  Edges
    with the same raw indicator vector map to one shared, frozen record.

    Raises:
        FusionError: naming the first edge in edge order whose sources
            totally conflict, or whose combined masses no longer sum to 1
            after a near-total conflict, with ``fuse_edge``'s message.
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


def _fuse_values(
    values: dict[tuple[str, str], tuple[float, ...]],
    bounds: tuple[tuple[float, float], ...],
    cfg: ReliabilityConfig,
) -> dict[tuple[str, str], EdgeInfluence]:
    # Each distinct raw vector is fused once (see the module docstring).  Key
    # equality implies identical inputs to fuse_edge: the raw values are
    # float(int) of nonnegative counts, so there is no -0.0 (equal to 0.0 as
    # a key but not bitwise) and no NaN (never equal to itself).  A vector's
    # first edge in edge order fuses it, so a FusionError names the same
    # edge as a per-edge run would.
    shared = _global_alphas(values, bounds, cfg)
    records: dict[tuple[float, ...], EdgeInfluence] = {}
    out: dict[tuple[str, str], EdgeInfluence] = {}
    for edge, vec in values.items():
        record = records.get(vec)
        if record is None:
            try:
                record = records[vec] = fuse_edge(_edge_bba_set(vec, bounds, cfg, shared))
            except ValueError as exc:  # TotalConflictError is one too
                raise FusionError(f"edge {edge[0]!r} -> {edge[1]!r}: {exc}") from exc
        out[edge] = record
    return out
