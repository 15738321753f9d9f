"""Dominance-pruned breadth-first search for combinatorial optimization.

A problem is described by a :class:`~frontier_search.theory.ProblemTheory`
(how partial solutions split, when a complete solution can be read off, and
which partial solutions dominate which); the engine keeps one undominated
frontier per depth level and returns the optimal feasible solutions it
reaches.  Problems whose dominance relation leaves a single undominated
child per level run as greedy algorithms.
"""

from .engine import (
    EngineConfig,
    GreedyViolation,
    Mode,
    SearchStats,
    SolveResult,
    solve,
)
from .theory import (
    Direction,
    IdentityDominance,
    ProblemTheory,
)

__all__ = [
    "EngineConfig",
    "GreedyViolation",
    "Mode",
    "SearchStats",
    "SolveResult",
    "solve",
    "Direction",
    "IdentityDominance",
    "ProblemTheory",
]

__version__ = "0.1.0"
