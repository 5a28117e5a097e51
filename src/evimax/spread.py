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
``tests/oracles.py`` as a check on it.  The field stores the graph once, as
out-adjacency keyed by user, which also serves as its user list.
``from_graph`` takes fusion's ``FusedEdges`` alone and fills the field in
one walk of its ``per_edge`` pairs, each weight the ``inf`` of the edge's
record; it never sees how fusion lines its records up with the edges.

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
from typing import Iterable, Mapping

from .fusion import FusedEdges
from .graph import UnknownUserError


class InfluenceField:
    """Immutable per-edge influence values over a fixed user set.

    One dict maps each user to its nonzero weighted out-edges in insertion
    order; its keys are the user set.  A field built from given weights
    checks that every weight lies in [0, 1] and that edges connect known,
    distinct users, then drops the zero weights (0.0 and -0.0); after
    construction the field is read-only and safe to share.
    """

    def __init__(
        self,
        users: Iterable[str],
        weights: Mapping[tuple[str, str], float],
    ) -> None:
        self._out: dict[str, list[tuple[str, float]]] = {u: [] for u in users}
        for (u, v), w in weights.items():
            if u not in self._out or v not in self._out:
                raise UnknownUserError(f"edge ({u!r}, {v!r}) references unknown user")
            if u == v:
                raise ValueError(f"self-loop weight for {u!r}")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"influence weight must lie in [0, 1], got {w!r}")
            if w:
                self._out[u].append((v, w))

    @classmethod
    def from_graph(cls, fused: FusedEdges) -> "InfluenceField":
        """Build a field from ``fuse_all``'s result alone, in one pass.

        The users are those of ``fused.graph``, and each of its edges with a
        nonzero ``inf`` gets that weight, so each user's out-edges keep the
        graph's insertion order and zero weights are dropped, as the
        constructor drops them.  The weights are not rechecked, since fusion
        built them.  Dempster's normalization can round a fused mass one ulp
        above 1 (1.0000000000000002), and such a weight is kept:
        ``singleton_spread_bounds`` and CELF need only nonnegative weights,
        which fusion guarantees.
        """
        field = cls(fused.graph.users, {})
        out = field._out
        for (u, v), w in filter(
            itemgetter(1), fused.per_edge([record.inf for record in fused.records])
        ):
            out[u].append((v, w))
        return field

    @property
    def users(self) -> Iterable[str]:
        return self._out.keys()

    def num_users(self) -> int:
        return len(self._out)

    def seed_contributions(self, u: str) -> dict[str, float]:
        """Influence of the single seed u on every reachable other user.

        Returns the additive per-seed field g(u, .): a direct edge counts
        twice (once through the x = v term, once through x = u as an
        in-neighbor of v), and each two-hop path u -> x -> v contributes the
        product of its weights.  Influence of a set on a non-member is the
        sum of its members' fields.
        """
        self._require(u)
        con: dict[str, float] = {}
        for x, w_ux in self._out[u]:
            con[x] = con.get(x, 0.0) + 2.0 * w_ux
            for v, w_xv in self._out[x]:
                if v != u:
                    con[v] = con.get(v, 0.0) + w_ux * w_xv
        return con

    def singleton_spread_bounds(self) -> dict[str, float]:
        """Upper bounds on sigma({u}) for every user, in one pass over the edges.

        The exact singleton spread is 1 + sum_x w_ux * (2 + sum_{v != u} w_xv),
        which is at most 1 + sum_x w_ux * (2 + S_x) with S_x the sum of x's
        out-weights.  A user without stored out-edges gets exactly 1.0: its
        spread adds no term to the 1, so 1.0 is also its float singleton
        spread and its first marginal gain.

        Every other bound is that sum scaled by m = 1 + (2E + 3) * 2**-52, E the
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
        out = self._out
        active = [(u, edges) for u, edges in out.items() if edges]
        two_plus_sums: dict[str, float] = {}
        for x, edges in active:
            total = 0.0
            for _, w in edges:
                total += w
            two_plus_sums[x] = 2.0 + total
        margin = 1.0 + (2 * sum(map(len, out.values())) + 3) * 2.0**-52
        bounds = dict.fromkeys(out, 1.0)
        for u, edges in active:
            total = 0.0
            for x, w in edges:
                total += w * two_plus_sums.get(x, 2.0)
            bounds[u] = (1.0 + total) * margin
        return bounds

    def _require(self, user: str) -> None:
        if user not in self._out:
            raise UnknownUserError(f"unknown user: {user!r}")

    def _require_seeds(self, seeds: Iterable[str]) -> None:
        for u in seeds:
            self._require(u)


def sigma(field: InfluenceField, seeds: set[str]) -> float:
    """Total influence of the seed set over the whole network."""
    field._require_seeds(seeds)
    acc: dict[str, float] = {}
    for u in sorted(seeds):
        for v, c in field.seed_contributions(u).items():
            acc[v] = acc.get(v, 0.0) + c
    total = float(len(seeds))
    for v, value in acc.items():
        if v not in seeds:
            total += value
    return total

