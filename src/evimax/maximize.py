"""Top-k seed selection by lazy-greedy (CELF) maximization of the spread.

The spread objective has diminishing marginal returns: a gain computed
against an earlier, smaller seed set upper-bounds the gain against any later
superset.  CELF exploits this by keeping every candidate's last known gain in
a max-heap with the round it was computed in; a popped entry whose gain is
stale is recomputed and pushed back, and an entry popped with a current-round
stamp is committed.  Under the shared deterministic tie-break (larger gain
first, then smaller user id) this selects exactly the same seeds as the
naive full-rescan greedy, while evaluating far fewer gains.

Round 0 does not evaluate every user's gain, and the heap does not start
with every user.  It starts from ``InfluenceField.singleton_spread_bounds``,
one stale upper bound per user with a stored out-edge, each evaluated the
first time it reaches the top.  Every other user, an idle id, has round-0
gain exactly 1.0 and acts as the entry (-1.0, id, 0): fresh in round 0,
stale after.  The idle entries join the heap once, all together, the first
time its top key reaches -1.0 or it empties; until then no idle entry can be
the top, so the pops are those of one heap holding every entry from the
start.  The commit is still the naive argmax: every entry's gain is at least
its user's gain in the current round, because float gains never grow as
seeds are added (the accumulated field only gains nonnegative terms, the
spread sum only loses them, and float addition is monotone in each operand),
so no entry below the committed one can hold a larger gain, or an equal one
with a smaller user id.  Seeds, gains and cumulative spreads are
bit-identical to a round 0 that evaluates everyone, and no step costs time
per user until an idle id can be the top.

A committed gain is fresh, computed against the current seed set, so
sigma(S + w) = sigma(S) + gain: the cumulative spread is the running sum of
the committed gains, and a commit costs one two-hop-frontier expansion into
``spread._SelectionState``, not a rescan of every user.

The naive full-rescan greedy and the exhaustive argmax over all size-k
subsets, the oracles that check the lazy machinery, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .spread import InfluenceField, _SelectionState


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
    ``select_celf`` a user without a stored out-edge, whose singleton spread
    is exactly 1, is not evaluated in round 0: it joins the heap at 1.0 the
    first time the top gain falls to 1.0.  No user is evaluated before its
    bound, or an idle id's 1.0, reaches the top of the heap.
    """

    choices: list[SeedChoice]
    gain_evaluations: int = 0

    def users(self) -> list[str]:
        return [c.user for c in self.choices]

    def __len__(self) -> int:
        return len(self.choices)


def _check_k(k: int) -> int:
    """k itself, once checked to be a seed count; it needs no input read."""
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    return k


def select_celf(influence_field: InfluenceField, k: int) -> SeedSelection:
    """Lazy-greedy selection of min(k, number of users) seeds."""
    k_eff = min(_check_k(k), influence_field.num_users())
    state = _SelectionState(influence_field)
    spread = 0.0

    # Stamp -1 marks a bound, evaluated the first time it reaches the top.
    bounds = influence_field.singleton_spread_bounds()
    heap = [(-bound, u, -1) for u, bound in bounds.items()]
    heapq.heapify(heap)
    # The ids without a bound join as (-1.0, id, 0) once one can be the top.
    joined = False

    choices: list[SeedChoice] = []
    while len(choices) < k_eff:
        if not joined and (not heap or heap[0][0] >= -1.0):
            heap += [(-1.0, u, 0) for u in influence_field.users if u not in bounds]
            heapq.heapify(heap)
            joined = True
        neg_gain, u, stamp = heapq.heappop(heap)
        if stamp == len(state.seeds):
            state.add(u)
            spread += -neg_gain
            choices.append(SeedChoice(len(choices) + 1, u, -neg_gain, spread))
        else:
            heapq.heappush(heap, (-state.gain(u), u, len(state.seeds)))
    return SeedSelection(choices, gain_evaluations=state.evaluations)

