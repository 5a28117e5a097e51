"""Turn raw edge indicators into a single evidential influence score.

Pipeline, per edge: min-max normalize each indicator over the whole edge set
and read the result as a BBA (normalized value as mass on {influencer}, the
complement on {passive}); estimate each indicator's reliability from its
average Jousselme distance to the other indicators on the same edge; discount
each BBA by its own reliability; combine everything with Dempster's rule.
The influence of u over v is then the combined mass on {influencer}.
The indicators stay integer counts, so a normalized value is one correctly
rounded division of the exact counts, above 2**53 too.

Reliability estimation follows "the farther from the others, the less
reliable": with ``c`` the average distance, reliability is
``(1 - c**lam) ** (1/lam)``, a decreasing map of c for any ``lam > 0``.
A ``ReliabilityConfig`` is either that per-edge estimate for one ``lam``
or a fixed alpha shared by every indicator on every edge, with no ``lam``.

One implementation of the pipeline lives here, on ``belief``'s
``MassFunction`` operators: ``indicator_bba``, ``estimate_reliabilities`` and
``fuse_edge(bbas, reliabilities)`` for one edge, ``edge_bba_sets`` for every
edge's ``(bbas, reliabilities)``, and ``fuse_configs`` / ``fuse_all`` for
every edge's ``EdgeInfluence`` record.
``fuse_configs`` computes the raw indicators and their bounds once for any
number of configs.  Within one config an edge's record depends only on its
raw indicator vector, so each distinct vector is fused once, and a config's
result is a ``FusedEdges``: one frozen record per distinct vector, and the
vector-id column of ``raw_indicators`` that gives every edge its record.
That result is all fusion hands on, and it is the one reader of the column:
``FusedEdges.per_edge`` pairs each edge with its vector's value, so the
influence field and ``dump-edges`` walk the edges without a per-edge
mapping and without knowing the column's layout.  Interaction counts
repeat heavily: the generated workloads have 32 distinct vectors among
71,027 edges at paper scale and 32 among 400,000 at five times that, so
``fuse_edge`` runs 32 times per config there (about 1 ms in all on a
2.0 GHz Xeon) and 32 records are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

from .belief import MassFunction, combine_dempster, discount, jousselme_distance
from .graph import SocialGraph, raw_indicators

# The reliability shape parameter of ``estimated`` configs and ``--lambda``.
DEFAULT_LAMBDA = 5.0


class FusionError(ValueError):
    """A per-edge fusion failure, annotated with the offending edge."""


@dataclass(frozen=True)
class ReliabilityConfig:
    """How per-indicator reliabilities are obtained.

    With ``alpha`` set, the same constant reliability applies everywhere
    (``fixed``); with ``alpha`` None, one reliability per indicator per edge
    is estimated from pairwise BBA distances (``estimated``).  ``lam`` shapes
    the distance-to-reliability map (best results around 5); a fixed config
    checks a given ``lam``, then holds None, so configs are equal exactly
    when they fuse alike.  ``name`` is the config's ``--configs`` token, and
    ``parse`` reads it back to an equal config given the same ``lam`` (any
    valid one for a fixed config).
    """

    alpha: float | None = None
    lam: float | None = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        if self.lam is not None or self.alpha is None:
            if self.lam is None or not 0.0 < self.lam < math.inf:
                raise ValueError(f"lambda must be finite and positive, got {self.lam!r}")
        if self.alpha is not None:
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
            if self.alpha == 0.0:
                # -0.0 would print as "-0" in names and in dump-edges cells.
                object.__setattr__(self, "alpha", 0.0)
            object.__setattr__(self, "lam", None)

    @classmethod
    def parse(cls, text: str, lam: float = DEFAULT_LAMBDA) -> "ReliabilityConfig":
        """Parse ``estimated`` or ``fixed:<alpha>``; ``lam`` is checked for both."""
        token = text.strip()
        if token == "estimated":
            return cls(lam=lam)
        if not token.startswith("fixed:"):
            raise ValueError(f"bad config token {text!r}, expected 'estimated' or 'fixed:<alpha>'")
        try:
            alpha = float(token[len("fixed:"):])
        except ValueError:
            raise ValueError(f"bad fixed alpha in config token {text!r}") from None
        return cls(alpha, lam)

    @property
    def name(self) -> str:
        if self.alpha is None:
            return "estimated"
        # ``:g`` keeps 6 significant digits; a longer alpha gets the
        # shortest text that parses back to it, so names stay distinct.
        text = f"{self.alpha:g}"
        return f"fixed:{text if float(text) == self.alpha else repr(self.alpha)}"


@dataclass(frozen=True, slots=True)
class EdgeInfluence:
    """The fused belief state of an edge, its influence, and its inputs.

    ``inf``, ``passive`` and ``omega`` are the fused masses on {influencer},
    {passive} and the whole frame; ``weights`` are the edge's normalized
    indicator values, its BBAs' masses on {influencer}, and ``reliabilities``
    the alphas those BBAs were discounted by.  A record carries no edge:
    ``fuse_all`` shares one record among all edges with the same indicator
    vector, through its column.
    """

    inf: float
    passive: float
    omega: float
    weights: tuple[float, ...]
    reliabilities: tuple[float, ...]


def _bounds(vectors: list[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
    """Each indicator's (min, max) over the vectors; ``()`` for none."""
    return tuple((min(col), max(col)) for col in zip(*vectors))


def indicator_bba(value: float, low: float, high: float) -> MassFunction:
    """BBA for one indicator value under min-max normalization over the edges.

    The normalized value becomes the mass on {influencer}, its complement the
    mass on {passive}.  A degenerate indicator (constant over all edges, so
    ``low == high``) carries no discriminating evidence and yields the
    vacuous BBA.
    """
    if not low <= value <= high:
        raise ValueError(f"value {value!r} outside normalization range [{low!r}, {high!r}]")
    if high == low:
        return MassFunction.vacuous()
    span = high - low
    return MassFunction((value - low) / span, (high - value) / span, 0.0)


def average_distances(bbas: tuple[MassFunction, ...]) -> tuple[float, ...]:
    """Average Jousselme distance from each BBA to all the others.

    Each BBA's n - 1 distances to the others are summed in index order and
    divided by n - 1; the zero self-distance is skipped, not added.
    """
    n = len(bbas)
    if n < 2:
        raise ValueError(f"need at least 2 indicators to estimate reliability, got {n}")
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


def fuse_edge(
    bbas: tuple[MassFunction, ...], reliabilities: tuple[float, ...]
) -> EdgeInfluence:
    """Discount each indicator BBA by its reliability and fuse them all.

    The record's weights are the BBAs' masses on {influencer}.  Every BBA is
    discounted before any is combined, so a bad reliability raises first.

    Raises:
        ValueError: "total conflict between sources", only reachable when
            the reliabilities are at or very near 1 and the indicators
            contradict each other; or "masses must sum to 1", when a
            near-total conflict leaves too few digits in Dempster's
            normalizer for the combined masses to still sum to 1.
    """
    discounted = [discount(m, alpha) for m, alpha in zip(bbas, reliabilities)]
    fused = reduce(combine_dempster, discounted)
    weights = tuple(m.influencer for m in bbas)
    return EdgeInfluence(fused.influencer, fused.passive, fused.omega, weights, reliabilities)


def _edge_inputs(
    vec: tuple[int, ...],
    bounds: tuple[tuple[int, int], ...],
    cfg: ReliabilityConfig,
) -> tuple[tuple[MassFunction, ...], tuple[float, ...]]:
    """The BBAs of a raw indicator vector and their reliabilities: ``fuse_edge``'s arguments."""
    bbas = tuple(indicator_bba(x, low, high) for x, (low, high) in zip(vec, bounds))
    return bbas, estimate_reliabilities(bbas, cfg)


@dataclass(frozen=True, slots=True)
class FusedEdges:
    """One config's fused influence for every edge of ``graph``.

    ``records[i]`` is the ``EdgeInfluence`` of the i-th distinct indicator
    vector, and ``column[j]`` the vector id of the j-th edge of
    ``graph.edges()``, shared by every config of a sweep.  No per-edge
    mapping is built: ``per_edge`` pairs the edges with any per-vector
    values lazily, so no reader outside this class needs the column.
    """

    graph: SocialGraph
    column: list[int]
    records: list[EdgeInfluence]

    def per_edge(self, values: Sequence[Any]) -> Iterator[tuple[tuple[str, str], Any]]:
        """Each edge of ``graph.edges()`` with ``values`` at its vector id, in edge order."""
        return zip(self.graph.edges(), map(values.__getitem__, self.column))


def edge_bba_sets(
    g: SocialGraph, cfg: ReliabilityConfig
) -> Iterator[tuple[tuple[str, str], tuple[tuple[MassFunction, ...], tuple[float, ...]]]]:
    """Each edge with its ``(bbas, reliabilities)``, in edge order.

    Pairs are yielded one at a time, so the edge set is never held twice.
    ``fuse_edge(*inputs)`` fuses an edge's inputs; a BBA's mass on
    {influencer} is its normalized indicator value, 0 for a constant one.
    """
    vectors, column = raw_indicators(g)
    bounds = _bounds(vectors)
    for edge, i in zip(g.edges(), column):
        yield edge, _edge_inputs(vectors[i], bounds, cfg)


def fuse_configs(
    g: SocialGraph, configs: Iterable[ReliabilityConfig]
) -> Iterator[FusedEdges]:
    """Fused influence for every edge, one ``FusedEdges`` per config, in config order.

    The raw indicators, their id column and their normalization bounds are
    computed once and shared by every config; each result is built only
    when the next one is requested, so a caller that drops it first holds
    one config's records at a time, as ``compare_configs`` does: it builds
    each config's field and runs its CELF before asking for the next.

    Raises:
        FusionError: naming the first edge in edge order whose sources
            totally conflict, or whose combined masses no longer sum to 1
            after a near-total conflict, with ``fuse_edge``'s message.
    """
    vectors, column = raw_indicators(g)
    bounds = _bounds(vectors)
    for cfg in configs:
        # Each distinct raw vector is fused once (see the module docstring):
        # the vectors are int triples, so equal ones are identical inputs to
        # fuse_edge.  Vectors are fused in the order of their first edges, so
        # the first that fails is the one a per-edge run would meet first,
        # and the error names its first edge.
        records: list[EdgeInfluence] = []
        for vec in vectors:
            try:
                records.append(fuse_edge(*_edge_inputs(vec, bounds, cfg)))
            except ValueError as exc:
                u, v = next(islice(g.edges(), column.index(len(records)), None))
                raise FusionError(f"edge {u!r} -> {v!r}: {exc}") from exc
        yield FusedEdges(g, column, records)


def fuse_all(g: SocialGraph, cfg: ReliabilityConfig) -> FusedEdges:
    """Fused influence for every edge of the graph; deterministic.

    The one-config case of ``fuse_configs``.
    """
    return next(fuse_configs(g, (cfg,)))
