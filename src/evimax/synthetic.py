"""Seed-reproducible synthetic social graphs with realistic activity volume.

The generator grows a directed preferential-attachment graph in which each
newcomer follows an already-popular account (edge: followee -> follower), so
follower counts develop the usual heavy tail.  Mention and retweet totals are
sized relative to the number of follow edges using the ratios observed on a
real Twitter crawl of comparable scale (follows : mentions : retweets close
to 71027 : 20300 : 9789), scaled by ``activity_intensity``.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from .graph import SocialGraph, UserActivity

MENTIONS_PER_FOLLOW = 20300 / 71027
RETWEETS_PER_FOLLOW = 9789 / 71027
TWEETS_PER_USER = 251329 / 36274
# Mentions and retweets are drawn one at a time, well over a second per million.
MAX_ACTIVITY_DRAWS = 10**7
# A user's tweet count is one exponential draw around the mean; a mean of a
# million tweets, about 144,000 times the crawl's, is far beyond any account.
MAX_MEAN_TWEETS = 10**6
# The graph is built in memory, so its sizes are capped at five times the
# 200,000 users and 400,000 edges of the largest benchmark workload: a
# mistyped size fails at once instead of filling memory.
MAX_USERS = 10**6
MAX_EDGES = 2 * 10**6


class InvalidParametersError(ValueError):
    """Synthetic-graph parameters outside the valid domain."""


def generate_synthetic(
    seed: int,
    n_users: int,
    n_edges: int,
    activity_intensity: float = 1.0,
) -> tuple[SocialGraph, dict[str, UserActivity]]:
    """Build a deterministic random graph plus matching per-user activity.

    The same seed always produces the same graph, byte for byte.  Follower
    counts in the activity records equal the number of edges each user is
    the source of (its followers under the followee -> follower convention).
    """
    if not 1 <= n_users <= MAX_USERS:
        raise InvalidParametersError(f"n_users must lie in [1, {MAX_USERS}], got {n_users}")
    if not 0 <= n_edges <= MAX_EDGES:
        raise InvalidParametersError(f"n_edges must lie in [0, {MAX_EDGES}], got {n_edges}")
    if n_edges > n_users * (n_users - 1):
        raise InvalidParametersError(
            f"{n_edges} edges do not fit in a simple digraph on {n_users} users"
        )
    mention_total = n_edges * MENTIONS_PER_FOLLOW * activity_intensity
    retweet_total = n_edges * RETWEETS_PER_FOLLOW * activity_intensity
    mean_tweets = TWEETS_PER_USER * activity_intensity
    if not all(0 <= x < math.inf for x in (activity_intensity, mention_total,
                                           retweet_total, mean_tweets)):
        raise InvalidParametersError(
            "activity_intensity must be >= 0 and finite, with finite activity "
            f"totals, got {activity_intensity}"
        )
    draws = round(mention_total) + round(retweet_total)
    if draws > MAX_ACTIVITY_DRAWS:
        raise InvalidParametersError(
            f"activity_intensity {activity_intensity} asks for "
            f"{mention_total + retweet_total:.3g} mentions and retweets on {n_edges} "
            f"edges; at most {MAX_ACTIVITY_DRAWS} are drawn"
        )
    if mean_tweets > MAX_MEAN_TWEETS:
        raise InvalidParametersError(
            f"activity_intensity {activity_intensity} asks for a mean of "
            f"{mean_tweets:.3g} tweets per user; at most {MAX_MEAN_TWEETS} is allowed"
        )

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
    made = 0
    for i in range(1, n_users):
        if made >= n_edges:
            break
        followee = targets[rng.randrange(len(targets))]
        g.add_edge(followee, join_order[i])
        targets.append(followee)
        targets.append(join_order[i])
        made += 1

    # Densification: extra follows from random users to popular accounts.
    attempts = 0
    max_attempts = 50 * max(n_edges - made, 1) + 1000
    while made < n_edges and attempts < max_attempts:
        attempts += 1
        follower = ids[rng.randrange(n_users)]
        followee = targets[rng.randrange(len(targets))]
        if followee == follower or g.has_edge(followee, follower):
            continue
        g.add_edge(followee, follower)
        targets.append(followee)
        made += 1
    if made < n_edges:
        # Dense corner: fill deterministically from the ordered pair grid.
        for src in ids:
            for dst in ids:
                if made >= n_edges:
                    break
                if src != dst and not g.has_edge(src, dst):
                    g.add_edge(src, dst)
                    made += 1
            if made >= n_edges:
                break

    edge_list = list(g.edges())
    if edge_list:
        for _ in range(round(mention_total)):
            g.add_mentions(*edge_list[rng.randrange(len(edge_list))], 1)
        for _ in range(round(retweet_total)):
            g.add_retweets(*edge_list[rng.randrange(len(edge_list))], 1)

    followers = Counter(src for src, _ in edge_list)
    activities: dict[str, UserActivity] = {}
    for user in ids:
        tweets = int(rng.expovariate(1.0 / mean_tweets)) if mean_tweets > 0 else 0
        activities[user] = UserActivity(user, tweets=tweets, followers=followers[user])
    return g, activities
