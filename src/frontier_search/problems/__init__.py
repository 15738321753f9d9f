from .graphs import (
    Graph,
    GraphDisconnected,
    GraphValidationError,
    InvalidNode,
    adjacency,
    is_connected,
)
from .knapsack import Knapsack, KnapsackDescriptor, KnapsackInstance
from .paths import PathDescriptor, SinglePairShortestPath
from .trees import (
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    TreeDescriptor,
    is_spanning_tree,
    tree_distances,
)

__all__ = [
    "Graph",
    "GraphDisconnected",
    "GraphValidationError",
    "InvalidNode",
    "adjacency",
    "is_connected",
    "Knapsack",
    "KnapsackDescriptor",
    "KnapsackInstance",
    "PathDescriptor",
    "SinglePairShortestPath",
    "KruskalSpanningTree",
    "PrimSpanningTree",
    "ShortestPathTree",
    "TreeDescriptor",
    "is_spanning_tree",
    "tree_distances",
]
