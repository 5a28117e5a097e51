"""Set-to-user influence and the global spread objective.

The influence of a seed set S on a user v is 1 when v belongs to S, and
otherwise the sum over seeds u and over v's in-neighborhood (plus v itself)
of two-hop products Inf(u, x) * Inf(x, v), with self-influence fixed at 1 and
non-adjacent distinct pairs at 0.  The spread of S is that quantity summed
over every user.  No clamping is applied: for v outside S the value can
exceed 1, and the objective is maximized exactly as defined.

``sigma`` evaluates the double sum by accumulating each seed's contribution
field over its two-hop out-frontier, which is an exact restructuring (all
terms outside the frontier are zero); the literal per-user form lives in
``tests/oracles.py`` as a check on it.  That accumulation, ``_SelectionState``,
also gives CELF its marginal gains.  The field stores the graph once, as
out-adjacency keyed by user, holding only the users with a stored out-edge;
its user list is the graph's own, not a copy, so a field costs memory and
time per stored edge, not per user.  ``from_graph`` takes fusion's
``FusedEdges`` alone and fills the field in one walk of its ``per_edge``
pairs, each weight the ``inf`` of the edge's record, summing each user's
out-weights as it goes; it never sees how fusion lines its records up with
the edges.

Only nonzero weights are stored, by either constructor: most fused edges
are exact zeros (every edge under a zero alpha), and a zero-weight edge adds
only +0.0 terms to the spread, the gains and the bounds.  Dropping it can
still reorder a sum: a seed's contributions are summed in the order the seed
first reaches each user, and a zero edge can reach a user first.  So a
spread or gain equals the zero-keeping field's up to the rounding of that
reordered sum, not always bit for bit.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, KeysView, Mapping

from .fusion import FusedEdges
from .graph import UnknownUserError


class InfluenceField:
    """Immutable per-edge influence values over a fixed user set.

    One dict maps each user with a nonzero out-weight to those weighted
    out-edges in insertion order, and another to their sum; a user without
    one has no entry in either.  The user set is held apart, as a keys view
    of the given users or, from ``from_graph``, the graph's own ``users``
    view, which is shared, not copied.  A field built from
    given weights checks that every weight lies in [0, 1] and that edges
    connect known, distinct users, then drops the zero weights (0.0 and
    -0.0); after construction the field is read-only and safe to share.
    """

    def __init__(
        self,
        users: Iterable[str],
        weights: Mapping[tuple[str, str], float],
    ) -> None:
        self._users: KeysView[str] = dict.fromkeys(users).keys()
        self._out: dict[str, list[tuple[str, float]]] = {}
        self._out_sums: dict[str, float] = {}
        for (u, v), w in weights.items():
            if u not in self._users or v not in self._users:
                raise UnknownUserError(f"edge ({u!r}, {v!r}) references unknown user")
            if u == v:
                raise ValueError(f"self-loop weight for {u!r}")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"influence weight must lie in [0, 1], got {w!r}")
        self._fill(filter(itemgetter(1), weights.items()))

    def _fill(self, weighted_edges: Iterable[tuple[tuple[str, str], float]]) -> None:
        """Append each weighted edge to its source's out-list and out-weight sum."""
        out, sums = self._out, self._out_sums
        for (u, v), w in weighted_edges:
            # Explicit additions in edge order: builtin sum() of floats is
            # compensated on Python 3.12+, so its bits differ across versions.
            if u in sums:
                out[u].append((v, w))
                sums[u] += w
            else:
                out[u] = [(v, w)]
                sums[u] = w

    @classmethod
    def from_graph(cls, fused: FusedEdges) -> "InfluenceField":
        """Build a field from ``fuse_all``'s result alone, in one pass.

        The users are those of ``fused.graph``, and each of its edges with a
        nonzero ``inf`` gets that weight, so each user's out-edges keep the
        graph's insertion order and zero weights are dropped, as the
        constructor drops them; when no record's ``inf`` is nonzero, the
        edges are not walked at all.  The weights are not rechecked: fusion
        built them in [0, 1], since a fused mass that Dempster's
        normalization rounds above 1 is stored as 1.0.
        """
        field = cls((), {})
        field._users = fused.graph.users
        weights = [record.inf for record in fused.records]
        if any(weights):
            field._fill(filter(itemgetter(1), fused.per_edge(weights)))
        return field

    @property
    def users(self) -> Iterable[str]:
        return self._users

    def num_users(self) -> int:
        return len(self._users)

    def seed_contributions(self, u: str) -> dict[str, float]:
        """Influence of the single seed u on every reachable other user.

        Returns the additive per-seed field g(u, .): a direct edge counts
        twice (once through the x = v term, once through x = u as an
        in-neighbor of v), and each two-hop path u -> x -> v contributes the
        product of its weights.  Influence of a set on a non-member is the
        sum of its members' fields.
        """
        if u not in self._users:
            raise UnknownUserError(f"unknown user: {u!r}")
        out = self._out
        con: dict[str, float] = {}
        for x, w_ux in out.get(u, ()):
            con[x] = con.get(x, 0.0) + 2.0 * w_ux
            for v, w_xv in out.get(x, ()):
                if v != u:
                    con[v] = con.get(v, 0.0) + w_ux * w_xv
        return con

    def singleton_spread_bounds(self) -> dict[str, float]:
        """Upper bounds on sigma({u}) for each user with a stored out-edge.

        The exact singleton spread is 1 + sum_x w_ux * (2 + sum_{v != u} w_xv),
        which is at most 1 + sum_x w_ux * (2 + S_x) with S_x the sum of x's
        out-weights, which the field summed as it stored them.  One pass over
        the stored edges makes the bounds, keyed in the out-adjacency's order.
        Every other user is left out: its bound is exactly 1.0, since its
        spread adds no term to the 1, and 1.0 is also its float singleton
        spread and its round-0 marginal gain.

        Each bound is that sum scaled by m = 1 + (2E + 3) * 2**-52, E the
        number of stored edges, so that it also bounds the float value that
        ``sigma`` and the greedy gain compute.  The field stores no zero
        weight, and a dropped edge adds no term to either side, so the
        counts below hold with E the stored edges alone.  With eps = 2**-53
        and all terms nonnegative, a rounding moves a value by a factor
        within [1 - eps, 1 + eps], and a sum of n terms, in any order or
        grouping, passes each term through at most n - 1 roundings:

        * The float spread adds at most E + 1 terms (the 1, u's own weights
          doubled, and one product per out-edge of each x; those edge sets are
          disjoint), so each term passes at most E additions and one product:
          it is at most (1 + eps)**(E + 1) times the exact spread.
        * A term of the bound passes at most d_x + 1 roundings up to
          w_ux * (2 + S_x) (d_x - 1 in S_x, d_x the out-degree of x, then the
          2 and the product), d_u - 1 summing over x, then 1 + total and the
          scaling: d_x + d_u + 2 <= E + 2 in all, so the bound is at least
          (1 - eps)**(E + 2) * m times the exact one.
        * (1 + eps)**(E + 1) / (1 - eps)**(E + 2) <= (1 - eps)**-(2E + 3)
          <= 1 + 2 * (2E + 3) * eps = m while (2E + 3) * eps <= 1/2, and m
          is exact in binary because (2E + 3) * 2**-52 is a multiple of 2**-52.

        A product that underflows errs by at most 2**-1075, far below the slack
        this leaves on a bound of at least 1.
        """
        sums = self._out_sums
        margin = 1.0 + (2 * sum(map(len, self._out.values())) + 3) * 2.0**-52
        bounds: dict[str, float] = {}
        for u, edges in self._out.items():
            total = 0.0
            for x, w in edges:
                total += w * (2.0 + sums.get(x, 0.0))
            bounds[u] = (1.0 + total) * margin
        return bounds


class _SelectionState:
    """A seed set and its accumulated field, grown one seed at a time.

    ``acc`` maps each user to the summed contributions of the seeds added so
    far, so a candidate's gain costs one two-hop-frontier expansion, not a
    spread evaluation (CELF's bookkeeping, Leskovec et al., KDD 2007).
    """

    def __init__(self, influence_field: InfluenceField) -> None:
        self.field = influence_field
        self.seeds: set[str] = set()
        self.acc: dict[str, float] = {}
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

    def add(self, w: str) -> None:
        """Add seed w, after adding its contributions to the accumulated field."""
        for v, c in self.field.seed_contributions(w).items():
            self.acc[v] = self.acc.get(v, 0.0) + c
        self.seeds.add(w)


def sigma(field: InfluenceField, seeds: set[str]) -> float:
    """Total influence of the seed set over the whole network.

    Seeds are added in sorted order, and ``seed_contributions`` checks each
    one as it comes, so a set holding unknown ids raises ``UnknownUserError``
    naming the smallest of them, whatever the hash order of the set.
    """
    state = _SelectionState(field)
    for u in sorted(seeds):
        state.add(u)
    total = float(len(seeds))
    for v, value in state.acc.items():
        if v not in seeds:
            total += value
    return total
