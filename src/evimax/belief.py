"""Belief-function arithmetic on the two-hypothesis frame {influencer, passive}.

A mass function (basic belief assignment) distributes one unit of belief over
the four subsets of the frame: the empty set, {influencer}, {passive}, and the
whole frame.  The empty set always carries zero mass; combination renormalizes
conflict away.  Three primitives are provided:

* :func:`combine_dempster` -- conjunctive, conflict-renormalized combination,
* :func:`discount` -- scaling toward total ignorance by a source reliability,
* :func:`jousselme_distance` -- subset-similarity-weighted distance in [0, 1].

Everything here is a pure function over immutable values, so instances can be
shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SUM_TOLERANCE = 1e-9
_NEGATIVE_TOLERANCE = -1e-12
_CONFLICT_EPSILON = 1e-12


@dataclass(frozen=True, slots=True)
class MassFunction:
    """A normalized BBA over the fixed two-hypothesis frame.

    The three stored components are the masses on {influencer}, {passive} and
    the whole frame; the empty set implicitly carries zero.  Components must
    be nonnegative and sum to one (tolerance ``SUM_TOLERANCE``).  After those
    checks, on the given values, each component is clamped into [0, 1]:
    sub-tolerance negative noise is stored as 0, and a component rounded
    above 1 (as Dempster's normalization can round one) is stored as 1.
    """

    influencer: float
    passive: float
    omega: float

    def __post_init__(self) -> None:
        total = self.influencer + self.passive + self.omega
        # Both checks are written so that NaN, which compares False with
        # everything, fails them.
        for name in ("influencer", "passive", "omega"):
            value = getattr(self, name)
            if not value >= _NEGATIVE_TOLERANCE:
                problem = "is not a number" if value != value else "is negative"
                raise ValueError(f"mass on {name!r} {problem}: {value!r}")
            if not 0.0 <= value <= 1.0:
                object.__setattr__(self, name, min(max(value, 0.0), 1.0))
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise ValueError(f"masses must sum to 1, got {total!r}")

    @classmethod
    def vacuous(cls) -> "MassFunction":
        """The total-ignorance BBA: all mass on the whole frame."""
        return cls(0.0, 0.0, 1.0)


def combine_dempster(a: MassFunction, b: MassFunction) -> MassFunction:
    """Combine two BBAs with Dempster's rule.

    The product mass of every pair of focal sets flows to their intersection;
    mass landing on the empty set (the conflict ``K``) is renormalized away.

    Raises:
        ValueError: "total conflict between sources", if the sources are
            fully committed to disjoint hypotheses (``K`` indistinguishable
            from 1), in which case no combined belief state exists.
    """
    conflict = a.influencer * b.passive + a.passive * b.influencer
    if conflict >= 1.0 - _CONFLICT_EPSILON:
        raise ValueError(f"total conflict between sources (K={conflict!r})")
    norm = 1.0 - conflict
    return MassFunction(
        (a.influencer * b.influencer
         + a.influencer * b.omega
         + a.omega * b.influencer) / norm,
        (a.passive * b.passive
         + a.passive * b.omega
         + a.omega * b.passive) / norm,
        (a.omega * b.omega) / norm,
    )


def discount(m: MassFunction, alpha: float) -> MassFunction:
    """Discount a BBA by the reliability ``alpha`` of its source.

    Every proper subset keeps ``alpha`` times its mass, the remainder moving
    to the whole frame.  Full reliability (1) returns ``m`` itself, since
    ``1 - (1 - omega)`` need not round back to ``omega``.  Zero reliability
    yields the vacuous BBA through the formula, exactly (0.0, 0.0, 1.0)
    when ``alpha`` is +0.0 and the masses are nonnegative.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reliability must lie in [0, 1], got {alpha!r}")
    if alpha == 1.0:
        return m
    return MassFunction(
        alpha * m.influencer,
        alpha * m.passive,
        1.0 - alpha * (1.0 - m.omega),
    )


def jousselme_distance(a: MassFunction, b: MassFunction) -> float:
    """Jousselme distance between two BBAs: sqrt(0.5 * d^T J d).

    ``J`` weights each subset pair by its Jaccard similarity, so disagreement
    between overlapping subsets counts less than disagreement between
    disjoint ones.  The result is a metric bounded in [0, 1], and the square
    root is ``math.sqrt``'s, correctly rounded on every IEEE platform.
    """
    di = a.influencer - b.influencer
    dp = a.passive - b.passive
    do = a.omega - b.omega
    # Quadratic form d^T J d with J the Jaccard similarity of subset pairs:
    # 1 on the diagonal, J(I, Omega) = J(P, Omega) = 1/2 and J(I, P) = 0.  The
    # empty-set slot of the difference vector is identically zero.
    quad = di * di + dp * dp + do * do + di * do + dp * do
    if quad < 0.0:  # numeric noise around zero
        quad = 0.0
    return math.sqrt(0.5 * quad)
