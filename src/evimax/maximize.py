"""Top-k seed selection by lazy-greedy (CELF) maximization of the spread.

The spread objective has diminishing marginal returns: a gain computed
against an earlier, smaller seed set upper-bounds the gain against any later
superset.  CELF exploits this by keeping every candidate's last known gain in
a max-heap with the round it was computed in; a popped entry whose gain is
stale is recomputed and pushed back, and an entry popped with a current-round
stamp is committed.  Under the shared deterministic tie-break (larger gain
first, then smaller user id) this selects exactly the same seeds as the
naive full-rescan greedy, while evaluating far fewer gains.

Round 0 does not evaluate every user's gain.  The heap starts from
``InfluenceField.singleton_spread_bounds``: each entry is a stale upper bound
on the user's float round-0 gain, evaluated the first time it reaches the
top, except that a bound of exactly 1.0 (a user with no nonzero out-weight)
is that gain and starts fresh.  The commit is still the naive argmax: every
key is at least its user's gain in the current round, because float gains
never grow as seeds are added (the accumulated field only gains nonnegative
terms, the spread sum only loses them, and float addition is monotone in
each operand), so no entry below the committed one can hold a larger gain,
or an equal one with a smaller user id.  Seeds, gains and cumulative
spreads are bit-identical to a round 0 that evaluates everyone.

A committed gain is fresh, computed against the current seed set, so
sigma(S + w) = sigma(S) + gain: committing a seed costs one two-hop-frontier
expansion into the accumulated field and one addition, not a rescan of every
user (CELF's own bookkeeping, Leskovec et al., KDD 2007).

The naive full-rescan greedy and the exhaustive argmax over all size-k
subsets, the oracles that check the lazy machinery, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .spread import InfluenceField


class InvalidKError(ValueError):
    """Requested seed count is not a positive integer."""


@dataclass(frozen=True)
class SeedChoice:
    rank: int
    user: str
    gain: float
    cumulative_sigma: float


@dataclass
class SeedSelection:
    """Ranked seed list with per-rank gains and cumulative spread values.

    ``gain_evaluations`` counts fresh marginal-gain computations.  In
    ``select_celf`` a user whose singleton spread is exactly 1 (no nonzero
    out-weight) is not evaluated in round 0, and no other user is evaluated
    before its bound reaches the top of the heap.
    """

    choices: list[SeedChoice]
    gain_evaluations: int = 0

    def users(self) -> list[str]:
        return [c.user for c in self.choices]

    @property
    def final_sigma(self) -> float:
        return self.choices[-1].cumulative_sigma if self.choices else 0.0

    def __len__(self) -> int:
        return len(self.choices)


class _SelectionState:
    """Incremental spread bookkeeping, shared with the naive greedy oracle.

    Maintains, for the current seed set, the accumulated per-user influence
    field and the current spread, so a candidate's gain costs one
    two-hop-frontier expansion instead of a full spread evaluation.
    """

    def __init__(self, influence_field: InfluenceField) -> None:
        self.field = influence_field
        self.seeds: set[str] = set()
        self.acc: dict[str, float] = {}
        self.sigma_value = 0.0
        self.evaluations = 0

    def gain(self, w: str) -> float:
        """Fresh marginal gain of w against the current seed set."""
        self.evaluations += 1
        spread_gain = 0.0
        for v, c in self.field.seed_contributions(w).items():
            if v not in self.seeds:
                spread_gain += c
        # Adding w turns its own influence-received term into membership.
        return 1.0 - self.acc.get(w, 0.0) + spread_gain

    def commit(self, w: str, gain: float) -> float:
        """Add w, whose fresh gain is ``gain``, and return the new spread value."""
        for v, c in self.field.seed_contributions(w).items():
            self.acc[v] = self.acc.get(v, 0.0) + c
        self.seeds.add(w)
        self.sigma_value += gain
        return self.sigma_value


def _effective_k(influence_field: InfluenceField, k: int) -> int:
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    return min(k, influence_field.num_users())


def select_celf(influence_field: InfluenceField, k: int) -> SeedSelection:
    """Lazy-greedy selection of min(k, number of users) seeds."""
    k_eff = _effective_k(influence_field, k)
    state = _SelectionState(influence_field)

    # Stamp -1 marks a bound, evaluated the first time it reaches the top; a
    # bound of exactly 1.0 is already the user's round-0 gain.
    heap = [
        (-bound, u, 0 if bound == 1.0 else -1)
        for u, bound in influence_field.singleton_spread_bounds().items()
    ]
    heapq.heapify(heap)

    choices: list[SeedChoice] = []
    while len(choices) < k_eff:
        neg_gain, u, stamp = heapq.heappop(heap)
        if stamp == len(state.seeds):
            cumulative = state.commit(u, -neg_gain)
            choices.append(SeedChoice(len(choices) + 1, u, -neg_gain, cumulative))
        else:
            heapq.heappush(heap, (-state.gain(u), u, len(state.seeds)))
    return SeedSelection(choices, gain_evaluations=state.evaluations)

