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

``fuse_all`` maps every edge to an ``EdgeInfluence`` record, one shared
record per distinct indicator vector.  The package holds only this pipeline;
the brute-force and naive oracles that check it live in ``tests/oracles.py``.
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
    load_graph,
    raw_indicators,
    write_graph,
)
from .maximize import (
    InvalidKError,
    SeedChoice,
    SeedSelection,
    select_celf,
)
from .spread import InfluenceField, sigma
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
    "sigma",
    "SeedChoice",
    "SeedSelection",
    "InvalidKError",
    "select_celf",
    "QualityCurve",
    "ComparisonReport",
    "quality_curve",
    "compare_configs",
]
