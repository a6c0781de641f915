"""nedist: node-neighborhood edit distances over level trees.

Nodes are compared by the edit distance between their k-level BFS
neighborhood trees.  An index answers exact nearest-neighbor and range
queries over a graph's nodes, pruning by a lower bound on that distance.
Tiny-instance oracles and seeded experiment harnesses round out the
package.
"""

from .errors import (
    EdgeListParseError,
    InvariantError,
    NedistError,
    TreeLiteralError,
    UsageError,
)
from .graph import Graph, build_graph, load_graph, parse_edge_list, to_edge_list
from .tree import (
    LevelTree,
    extract_k_adjacent_tree,
    parse_tree_literal,
    to_tree_literal,
)
from .ted import (
    UNIT,
    W_PLUS,
    CostBreakdown,
    WeightScheme,
    ted_star,
    ted_star_distance_only,
)
from .ned import (
    TreeDistanceCache,
    ned,
    ned_directed,
    tree_for,
)
from .vptree import VpIndex, build_index, hausdorff_graph_distance
from .oracle import (
    enumerate_trees,
    exact_ged_on_trees,
    exact_ted_star,
    exact_unordered_ted,
)
from .experiments import (
    AnonymizationSpec,
    DeanonReport,
    anonymize,
    deanonymize,
    k_effect_study,
    random_graph,
    random_tree,
    scaling_study,
    ted_closeness_study,
)

__version__ = "0.1.0"

__all__ = [
    "AnonymizationSpec",
    "CostBreakdown",
    "DeanonReport",
    "EdgeListParseError",
    "Graph",
    "InvariantError",
    "LevelTree",
    "NedistError",
    "TreeDistanceCache",
    "TreeLiteralError",
    "UNIT",
    "UsageError",
    "VpIndex",
    "W_PLUS",
    "WeightScheme",
    "anonymize",
    "build_graph",
    "build_index",
    "deanonymize",
    "enumerate_trees",
    "exact_ged_on_trees",
    "exact_ted_star",
    "exact_unordered_ted",
    "extract_k_adjacent_tree",
    "hausdorff_graph_distance",
    "k_effect_study",
    "load_graph",
    "ned",
    "ned_directed",
    "parse_edge_list",
    "parse_tree_literal",
    "random_graph",
    "random_tree",
    "scaling_study",
    "ted_closeness_study",
    "ted_star",
    "ted_star_distance_only",
    "to_edge_list",
    "to_tree_literal",
    "tree_for",
]
