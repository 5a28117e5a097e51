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
    field = InfluenceField.from_graph(graph, influences)
    seeds = select_celf(field, k=50)
"""

from .belief import (
    MassFunction,
    TotalConflictError,
    combine_dempster,
    discount,
    jousselme_distance,
)
from .evaluate import ComparisonReport, QualityCurve, compare_configs, quality_curve
from .fusion import (
    EdgeBBASet,
    EdgeInfluence,
    FusionError,
    OutOfRangeError,
    ReliabilityConfig,
    TooFewIndicatorsError,
    estimate_reliabilities,
    fuse_all,
    fuse_configs,
    fuse_edge,
    indicator_bba,
)
from .graph import (
    ParseError,
    SocialGraph,
    UnknownUserError,
    UserActivity,
    common_neighbors,
    load_graph,
    raw_indicators,
    write_graph,
)
from .maximize import (
    InvalidKError,
    SeedChoice,
    SeedSelection,
    TooLargeError,
    select_celf,
    select_exhaustive,
    select_greedy_naive,
)
from .spread import AlreadyInSetError, InfluenceField, influence_on, marginal_gain, sigma
from .synthetic import InvalidParametersError, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "MassFunction",
    "TotalConflictError",
    "combine_dempster",
    "discount",
    "jousselme_distance",
    "SocialGraph",
    "UserActivity",
    "ParseError",
    "UnknownUserError",
    "common_neighbors",
    "raw_indicators",
    "load_graph",
    "write_graph",
    "generate_synthetic",
    "InvalidParametersError",
    "ReliabilityConfig",
    "EdgeBBASet",
    "EdgeInfluence",
    "OutOfRangeError",
    "TooFewIndicatorsError",
    "FusionError",
    "indicator_bba",
    "estimate_reliabilities",
    "fuse_edge",
    "fuse_all",
    "fuse_configs",
    "InfluenceField",
    "AlreadyInSetError",
    "influence_on",
    "sigma",
    "marginal_gain",
    "SeedChoice",
    "SeedSelection",
    "InvalidKError",
    "TooLargeError",
    "select_celf",
    "select_greedy_naive",
    "select_exhaustive",
    "QualityCurve",
    "ComparisonReport",
    "quality_curve",
    "compare_configs",
]
