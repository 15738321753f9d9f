"""Shared helpers: small instances, descriptor enumeration, stats checks."""

from __future__ import annotations

import copy
from functools import cached_property
from itertools import islice

import pytest
from hypothesis import strategies as st

from frontier_search.problems import (
    Graph,
    Knapsack,
    PathDescriptor,
    SinglePairShortestPath,
)
from frontier_search.problems.knapsack import FORCED_FILLS
from frontier_search.theory import ProblemTheory


class FullKnapsack(Knapsack):
    """Knapsack without its bound: every move that fits, out before in.

    The reference the bounded ``Knapsack`` is tested against, and the
    vehicle for tests that need a prefix's full two-way split.
    """

    def child_moves(self, y):
        k = len(y.serial)
        if k == self.n:
            return []
        w, u = self.decided[k]
        if y.weight + w <= self.capacity:
            return [(0, 0), (u, 1)]
        return [(0, 0)]

    # ``Knapsack`` states its bound in ``split`` and reads ``child_moves``
    # off it, so this class needs both: with the default ``split`` and the
    # inherited ``child_moves``, each would call the other without end.
    split = ProblemTheory.split


def scan_fill(pairs, room: int) -> int:
    """Utility of taking each ``(weight, utility)`` pair in turn that still
    fits in ``room``."""
    total = 0
    for w, u in pairs:
        if w <= room:
            room -= w
            total += u
    return total


def forced_fill_incumbent(theory: Knapsack) -> int:
    """``Knapsack.incumbent`` by plain scans, with no bisection, bound or
    guard.

    The reference the forced fills are tested against: the best of the
    greedy fill and, at each position p within ``FORCED_FILLS`` of the break
    item b, the greedy fill with item p skipped (p < b) or taken first
    (p >= b).
    """
    pairs, capacity = theory.decided, theory.capacity
    room, b = capacity, len(pairs)
    for k, (w, _) in enumerate(pairs):
        if w > room:
            b = k
            break
        room -= w
    best = scan_fill(pairs, capacity)
    for p in range(max(0, b - FORCED_FILLS), min(len(pairs), b + FORCED_FILLS)):
        (w, u), rest = pairs[p], pairs[:p] + pairs[p + 1:]
        if p < b:
            best = max(best, scan_fill(rest, capacity))
        elif w <= capacity:
            best = max(best, u + scan_fill(rest, capacity - w))
    return best


class GreedyIncumbentKnapsack(Knapsack):
    """Knapsack whose bound prunes against the greedy fill alone, with no
    forced fills around the break item.

    The reference the forced fills are tested against: the same search under
    a lower incumbent, which must find the same optima with no less work.
    """

    @cached_property
    def incumbent(self) -> int:
        return self.greedy_fill


def scan_reaches(theory: Knapsack, level: int, room: int, utility: int) -> bool:
    """``Knapsack._reaches`` by a linear scan to the break item.

    The reference the bisected bound is tested against: take the undecided
    items in ratio order while they fit whole, then the fitting fraction of
    the first that does not.
    """
    need = theory.incumbent - utility
    if need <= 0:
        return True
    for w, u in islice(theory.decided, level, None):
        if w > room:
            return u * room // w >= need
        room -= w
        need -= u
        if need <= 0:
            return True
    return False


def assert_bound_is_the_scan(theory: Knapsack) -> None:
    """``_reaches`` equals ``scan_reaches`` on every level, room up to the
    capacity and utility up to one past the incumbent; the root reaches; and
    wherever a member reaches and its level's item fits, the in-child that
    takes the item reaches too, which is why ``split`` keeps it untested."""
    assert theory._reaches(0, theory.capacity, 0)
    for level in range(theory.n + 1):
        for room in range(theory.capacity + 1):
            for utility in range(theory.incumbent + 2):
                reaches = theory._reaches(level, room, utility)
                assert reaches == scan_reaches(theory, level, room, utility), (
                    level, room, utility
                )
                if reaches and level < theory.n:
                    w, u = theory.decided[level]
                    if w <= room:
                        assert theory._reaches(level + 1, room - w, utility + u)


class FullPath(SinglePairShortestPath):
    """Single-pair shortest path without its bound: every edge from the end
    node to a node the path has not visited.

    The reference the bounded ``SinglePairShortestPath`` is tested against,
    and the vehicle for tests of dominance on paths the bound would cut.
    """

    def child_moves(self, y):
        visited = self._nodes(y)
        return [(w, ei) for ei, other, w in self._adj[y.end] if other not in visited]

    # As in ``FullKnapsack``: the bound is stated in ``split``, which
    # the inherited ``child_moves`` reads, so both are replaced.
    split = ProblemTheory.split


def first_sweep(theory: SinglePairShortestPath) -> tuple[list[int], list[int]]:
    """The swept costs after the first sweep, and the breadth-first order
    from the source in which it visits the nodes it reaches."""
    swept = [-1] * theory.graph.n
    swept[theory.source] = 0
    order = [theory.source]
    for u in order:
        for _, v, w in theory._adj[u]:
            if swept[v] < 0:
                order.append(v)
                swept[v] = swept[u] + w
            else:
                swept[v] = min(swept[v], swept[u] + w)
    return swept, order


def one_pass_swept(theory: SinglePairShortestPath) -> list[int]:
    """``SinglePairShortestPath._swept`` after its first sweep alone.

    The reference the second sweep is tested against: each node, in
    breadth-first order from the source, lowers the cost of every neighbour
    through its own, and a neighbour not yet reached starts at that cost.
    """
    return first_sweep(theory)[0]


def two_pass_swept(theory: SinglePairShortestPath) -> list[int]:
    """``SinglePairShortestPath._swept`` with its second sweep over every node.

    The reference the skipping second sweep is tested against: after the
    first sweep, each node in the same order lowers the cost of every
    neighbour through its own once more, whether or not its cost fell.
    """
    swept, order = first_sweep(theory)
    for u in order:
        for _, v, w in theory._adj[u]:
            swept[v] = min(swept[v], swept[u] + w)
    return swept


def scan_split(theory: SinglePairShortestPath, y) -> list:
    """``SinglePairShortestPath.split`` by a scan of the end node's whole
    adjacency, with the visited set derived up front.

    The reference the per-node move tables are tested against: every edge at
    the end node to an unvisited node within its limit, in edge-index order.
    """
    visited, limits = theory._nodes(y), theory._limits
    return [
        PathDescriptor(y.serial + (ei,), other, y.cost + w)
        for ei, other, w in theory._adj[y.end]
        if y.cost + w <= limits[other] and other not in visited
    ]


class ScanPath(SinglePairShortestPath):
    """Single-pair shortest path whose every split is ``scan_split``: the
    same search with no move tables, so no state shared between splits."""

    split = scan_split


class IncumbentPath(SinglePairShortestPath):
    """Single-pair shortest path bounded by the incumbent alone, the same
    swept cost as ``SinglePairShortestPath``'s: no other node's limit is cut
    to its swept cost.

    The reference the swept cut is tested against, in the way ``FullPath``
    stands for the unbounded search.
    """

    @cached_property
    def _limits(self):
        if self.incumbent is None:
            return [-1] * self.graph.n
        rest = min((w for _, _, w in self._adj[self.target]), default=0)
        limits = [self.incumbent - rest] * self.graph.n
        limits[self.target] = self.incumbent
        return limits


@st.composite
def multigraphs(draw):
    """Small graphs crowded with parallel and zero-weight edges."""
    n = draw(st.integers(2, 5))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node, st.sampled_from((0, 0, 0, 1, 2, 5)))
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1]), max_size=10))
    return Graph(n, tuple(edges))


def enumerate_levels(theory: ProblemTheory, max_level: int | None = None):
    """All reachable descriptors grouped by level, duplicates removed."""
    if max_level is None:
        max_level = theory.max_depth()
    levels = [[theory.initial()]]
    while len(levels) - 1 < max_level and levels[-1]:
        nxt: dict = {}
        for y in levels[-1]:
            for child in theory.split(y):
                nxt.setdefault(child.serial, child)
        if not nxt:
            break
        levels.append(list(nxt.values()))
    return levels


def sibling_families(theory: ProblemTheory, max_level: int | None = None):
    """Children grouped by parent, for every reachable parent."""
    families = []
    for layer in enumerate_levels(theory, max_level):
        for y in layer:
            children = theory.split(y)
            if len(children) > 1:
                families.append(children)
    return families


def bounded(theory: ProblemTheory, depth: int | None) -> ProblemTheory:
    """A shallow copy of ``theory`` whose ``max_depth()`` is ``depth``.

    ``solve`` searches no deeper than ``max_depth()``, so this is how a test
    runs a depth-bounded search.  ``None`` keeps the theory's own bound.
    """
    copied = copy.copy(theory)
    if depth is not None:
        copied.max_depth = lambda: depth
    return copied


def assert_key_matches_dominates(theory, y, other):
    """``y`` dominates ``other`` iff its key shares the group and is no greater
    in ``a`` and ``b``; the keys are equal iff each dominates the other."""
    ky, ko = theory.equivalence_key(y), theory.equivalence_key(other)
    (gy, ay, by), (go, ao, bo) = ky, ko
    assert theory.dominates(y, other) == (gy == go and ay <= ao and by <= bo)
    mutual = theory.dominates(y, other) and theory.dominates(other, y)
    assert (ky == ko) == mutual


def assert_stats_ledger(stats) -> None:
    """The accounting identity holds, and the totals are read off the rows."""
    assert stats.accounting_identity_holds(), stats
    assert stats.levels == len(stats.per_level_width), stats
    assert stats.generated == sum(raw for raw, _ in stats.per_level_width), stats


@pytest.fixture
def triangle() -> Graph:
    """Nodes 0(start)-1-2(goal); direct edge is costlier than the detour."""
    return Graph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))


@pytest.fixture
def diamond() -> Graph:
    """Two disjoint unit-weight routes from node 0 to node 3."""
    return Graph(4, ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)))


@pytest.fixture
def weighted_triangle() -> Graph:
    return Graph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
