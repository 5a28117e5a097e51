"""Seed-reproducible synthetic social graphs with realistic activity volume.

The generator grows a directed preferential-attachment graph in which each
newcomer follows an already-popular account (edge: followee -> follower), so
follower counts develop the usual heavy tail.  Edges beyond the growth tree
come from densification, which keeps drawing a random follower and a
popular followee, rejecting self-pairs and existing edges, until exactly
the requested number of distinct edges exists.  Mention and retweet totals are
sized relative to the number of follow edges using the ratios observed on a
real Twitter crawl of comparable scale (follows : mentions : retweets close
to 71027 : 20300 : 9789), and each user's tweet count is drawn around the
crawl's mean of 251329 tweets over 36274 users.
"""

from __future__ import annotations

import random
from collections import Counter

from .graph import SocialGraph

MENTIONS_PER_FOLLOW = 20300 / 71027
RETWEETS_PER_FOLLOW = 9789 / 71027
TWEETS_PER_USER = 251329 / 36274
# The graph is built in memory, so its sizes are capped at five times the
# 200,000 users and 400,000 edges of the largest benchmark workload: a
# mistyped size fails at once instead of filling memory.
MAX_USERS = 10**6
MAX_EDGES = 2 * 10**6


def generate_synthetic(
    seed: int,
    n_users: int,
    n_edges: int,
) -> tuple[SocialGraph, dict[str, tuple[int, int]]]:
    """Build a deterministic random graph plus matching per-user activity.

    The same seed always produces the same graph, byte for byte.  Each
    user's activity is its ``(tweets, followers)`` pair, and its follower
    count equals the number of edges it is the source of (its followers
    under the followee -> follower convention).

    Raises:
        ValueError: if ``n_users`` or ``n_edges`` lies outside its range, or
            the edges do not fit in a simple digraph on the users.
    """
    if not 1 <= n_users <= MAX_USERS:
        raise ValueError(f"n_users must lie in [1, {MAX_USERS}], got {n_users}")
    if not 0 <= n_edges <= MAX_EDGES:
        raise ValueError(f"n_edges must lie in [0, {MAX_EDGES}], got {n_edges}")
    if n_edges > n_users * (n_users - 1):
        raise ValueError(f"{n_edges} edges do not fit in a simple digraph on {n_users} users")

    rng = random.Random(seed)
    width = max(4, len(str(n_users - 1)))
    ids = [f"u{i:0{width}d}" for i in range(n_users)]
    # Decouple label order from join order: ids carry no age information,
    # so lexicographically early users are not systematically hubs.
    join_order = ids[:]
    rng.shuffle(join_order)

    g = SocialGraph()
    for user in ids:
        g.add_user(user)

    # Growth phase: each newcomer follows one preferentially chosen earlier
    # account.  The repeated-targets list implements degree-biased sampling.
    targets = [join_order[0]]
    made = min(n_users - 1, n_edges)
    for newcomer in join_order[1:made + 1]:
        followee = targets[rng.randrange(len(targets))]
        g.add_edge(followee, newcomer)
        targets.append(followee)
        targets.append(newcomer)

    # Densification: extra follows from random users to popular accounts.
    # It runs only after growth put every user into ``targets``, so each free
    # ordered pair has draw probability >= 1 / (n_users * len(targets)); the
    # fit check keeps one free while made < n_edges, so the loop ends.
    while made < n_edges:
        follower = ids[rng.randrange(n_users)]
        followee = targets[rng.randrange(len(targets))]
        if followee == follower or g.has_edge(followee, follower):
            continue
        g.add_edge(followee, follower)
        targets.append(followee)
        made += 1

    # Without edges both totals are 0, so no draw reads the empty list.
    edge_list = list(g.edges())
    draws = ((g.mentions, MENTIONS_PER_FOLLOW), (g.retweets, RETWEETS_PER_FOLLOW))
    for counts, per_follow in draws:
        for _ in range(round(n_edges * per_follow)):
            edge = edge_list[rng.randrange(len(edge_list))]
            counts[edge] = counts.get(edge, 0) + 1

    followers = Counter(src for src, _ in edge_list)
    return g, {
        user: (int(rng.expovariate(1.0 / TWEETS_PER_USER)), followers[user]) for user in ids
    }
