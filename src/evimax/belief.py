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

from dataclasses import dataclass

SUM_TOLERANCE = 1e-9
_NEGATIVE_TOLERANCE = -1e-12
_CONFLICT_EPSILON = 1e-12


class TotalConflictError(ValueError):
    """Raised when two fully committed, contradictory BBAs are combined."""


@dataclass(frozen=True, slots=True)
class MassFunction:
    """A normalized BBA over the fixed two-hypothesis frame.

    The three stored components are the masses on {influencer}, {passive} and
    the whole frame; the empty set implicitly carries zero.  Components must
    be nonnegative and sum to one (tolerance ``SUM_TOLERANCE``); sub-tolerance
    negative noise is clamped to zero on construction.
    """

    influencer: float
    passive: float
    omega: float

    def __post_init__(self) -> None:
        # Both checks are written so that NaN, which compares False with
        # everything, fails them.
        for name in ("influencer", "passive", "omega"):
            value = getattr(self, name)
            if not value >= _NEGATIVE_TOLERANCE:
                problem = "is not a number" if value != value else "is negative"
                raise ValueError(f"mass on {name!r} {problem}: {value!r}")
            if value < 0.0:
                object.__setattr__(self, name, 0.0)
        total = self.influencer + self.passive + self.omega
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
        TotalConflictError: if the sources are fully committed to disjoint
            hypotheses (``K`` indistinguishable from 1), in which case no
            combined belief state exists and the caller must not proceed.
    """
    conflict = a.influencer * b.passive + a.passive * b.influencer
    if conflict >= 1.0 - _CONFLICT_EPSILON:
        raise TotalConflictError(
            f"total conflict between sources (K={conflict!r})"
        )
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
    to the whole frame: full reliability (1) keeps the BBA, zero reliability
    yields the vacuous BBA.  The endpoints are returned exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reliability must lie in [0, 1], got {alpha!r}")
    if alpha == 1.0:
        return m
    if alpha == 0.0:
        return MassFunction.vacuous()
    return MassFunction(
        alpha * m.influencer,
        alpha * m.passive,
        1.0 - alpha * (1.0 - m.omega),
    )


def jousselme_distance(a: MassFunction, b: MassFunction) -> float:
    """Jousselme distance between two BBAs: sqrt(0.5 * d^T J d).

    ``J`` weights each subset pair by its Jaccard similarity, so disagreement
    between overlapping subsets counts less than disagreement between
    disjoint ones.  The result is a metric bounded in [0, 1].
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
    return (0.5 * quad) ** 0.5
