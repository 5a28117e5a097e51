"""evimax - evidential influence scoring and top-k influencer selection.

Scores every edge of a directed social graph with a belief-function fusion
of reliability-weighted activity indicators, then selects the seed set that
maximizes the resulting two-hop spread objective with lazy-greedy (CELF)
optimization.

Typical use::

    from evimax import (
        ReliabilityConfig, fuse_all, InfluenceField, select_celf, load_graph,
    )

    graph, activity = load_graph("edges.csv", "mentions.csv",
                                 "retweets.csv", "activity.csv")
    influences = fuse_all(graph, ReliabilityConfig.estimated(lam=5.0))
    field = InfluenceField.from_graph(influences)
    seeds = select_celf(field, k=50)

``fuse_all`` returns a ``FusedEdges``: one ``EdgeInfluence`` record per
distinct indicator vector for the edges of the graph it was given;
``items()`` pairs every edge with its record, and ``from_graph`` needs
nothing else.  This package exports that pipeline, the results it returns,
``compare_configs`` and the errors these raise; everything else (the belief
operators, the per-edge fusion steps, ``SocialGraph``, the synthetic
generator) is imported from its submodule.  The brute-force and naive
oracles that check the pipeline live in ``tests/oracles.py``.
"""

from .evaluate import EvaluationError, compare_configs
from .fusion import (
    EdgeInfluence, FusedEdges, FusionError, ReliabilityConfig, fuse_all, fuse_configs,
)
from .graph import ParseError, UnknownUserError, load_graph
from .maximize import InvalidKError, SeedSelection, select_celf
from .spread import InfluenceField, sigma

__version__ = "0.1.0"

__all__ = [
    "load_graph",
    "ReliabilityConfig",
    "fuse_all",
    "fuse_configs",
    "InfluenceField",
    "select_celf",
    "sigma",
    "FusedEdges",
    "EdgeInfluence",
    "SeedSelection",
    "compare_configs",
    "ParseError",
    "FusionError",
    "InvalidKError",
    "UnknownUserError",
    "EvaluationError",
]
