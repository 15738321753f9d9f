"""Tree-growing problems: shortest-path tree and minimum spanning tree.

All three theories here derive from one base and share one descriptor,
``TreeDescriptor``: a partial solution is an acyclic edge set, stored once
in an immutable tuple as its sorted edge indices, that grows by one edge per
level until it spans the graph.  Its level is its edge count, and its cost,
node set, root-path costs and components are derived from the edges by the
theory that needs them: ``partial_cost`` is the theory's own ``cost`` of
the edge set.  The dominance relation is a strict ranking of the children
of a common parent, so the undominated frontier always has width one (the
greedy choice).  Ranking compares ``(partial_cost, serial)``, which for
children of one parent is exactly "cheapest added element, smallest edge
index on ties".  The derivations differ in small systematic changes:

* minimum spanning tree, forest variant: merge components along the lightest
  edge joining two of them (Kruskal's scheme);
* rooted variants: grow one tree from a root, attaching the outside node
  whose attachment is cheapest.  Attaching node v along the edge (u, v, w)
  costs ``label(u) + w``, and one rule names the labels.  With label 0 this
  is the minimum spanning tree's cut variant (Prim's scheme).  With the
  node's root-path cost it is the shortest-path tree (Dijkstra's scheme),
  whose cost is the sum of all root-path costs.

The ranking only means anything between siblings; ``dominates`` therefore
answers False for same-level descriptors that do not share a parent.  Its
guarantee is carried by the surviving minimum: the cheapest child of any
parent extends to a completion at least as good as every sibling's (the
classic exchange argument), which is exactly what keeping a single
undominated child per level requires.  The same ranking is the theories'
``equivalence_key``, ``(level, 0, (partial_cost, serial))``: a level of the
search holds the children of its one surviving parent, among which key
order is exactly ``dominates``, so the pipeline (``strictly_ranked`` off)
takes the keyed sort and sweep rather than testing every pair of siblings.

Both schemes override ``greedy_walk``, the engine's greedy path, with the
finite-differenced form of their derivation (Paige and Koenig's finite
differencing, the step Smith's KIDS applies after the global-search schema):
rather than recompute the candidate moves at every level, the walk keeps
them and updates them by the one element each level adds.  The rooted walk
keeps the crossing edges in a lazy-deletion heap keyed ``(increment, edge
index)``, and pushes an edge only when its increment is at most the lowest
already pushed for its outside node: a costlier edge is dominated, as it can
never be the cheapest child, so it is counted but not pushed.  Ties are
pushed, so the heap still picks the smallest edge index.
Kruskal's tries the edges in ``(weight, edge index)`` order and keeps a
component label per node, relabelling the smaller component on each merge
(the weighted-union heuristic).  That order, which Python's stable sort
gives from the weights alone, and each node's far edge ends depend on the
graph alone, so the theory builds both once and every walk only reads them:
a theory solved more than once saves the build on each later solve, and one
solved once pays it at construction in place of its walk.
Both keep the level's move count up to date and return every level's count
with the last descriptor, the only one they build.  The walks pick the same
child and count the same moves as ``child_moves`` at every level, so optima
and every search statistic equal the default walk's, in O(m log n) time in
place of O(n m).
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from math import inf
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from ..theory import Direction, ProblemTheory
from .graphs import (
    Graph,
    GraphDisconnected,
    InvalidNode,
    adjacency,
    require_connected,
)


class TreeDescriptor(NamedTuple):
    """Acyclic edge set, as its sorted edge indices."""

    serial: tuple[int, ...]


def _with_edge(serial: tuple[int, ...], ei: int) -> tuple[int, ...]:
    out = list(serial)
    insort(out, ei)
    return tuple(out)


def _find(parent: list[int], v: int) -> int:
    """Union-find root of ``v``, halving its path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _components(graph: Graph, edges: Iterable[int]) -> list[int]:
    """Each node's component in the forest ``edges``, as its smallest node."""
    # Hanging the larger root under the smaller keeps each root the smallest.
    parent = list(range(graph.n))
    for ei in edges:
        a, b, _ = graph.edges[ei]
        ra, rb = _find(parent, a), _find(parent, b)
        parent[max(ra, rb)] = min(ra, rb)
    return [_find(parent, v) for v in range(graph.n)]


def is_spanning_tree(graph: Graph, z: frozenset[int]) -> bool:
    """n - 1 edges of the graph joining every node into one component.

    n - 1 edges span the graph exactly when none of them closes a cycle, so
    one union-find pass that stops at the first such edge decides it.
    """
    if len(z) != graph.n - 1:
        return False
    if z and (min(z) < 0 or max(z) >= graph.m):
        return False
    edges, parent = graph.edges, list(range(graph.n))
    for ei in z:
        a, b, _ = edges[ei]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def tree_distances(graph: Graph, z: Iterable[int], source: int) -> dict[int, int]:
    """Root-path cost of every node the acyclic edge set ``z`` joins to ``source``."""
    edges = graph.edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for ei in z:
        a, b, w = edges[ei]
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = {source: 0}
    order = [source]
    for u in order:
        du = dist[u]
        for v, w in adj[u]:
            if v not in dist:
                dist[v] = du + w
                order.append(v)
    return dist


class _SpanningTreeTheory(ProblemTheory):
    """What the three spanning-tree theories share, all but how trees grow."""

    direction = Direction.MINIMIZE
    strictly_ranked = True

    def __init__(self, graph: Graph):
        # Each theory checks that the graph is connected on the table it
        # keeps, rather than build another.
        self.graph = graph

    def initial(self) -> TreeDescriptor:
        return TreeDescriptor(())

    def apply_move(self, y: TreeDescriptor, move: int) -> TreeDescriptor:
        return TreeDescriptor(_with_edge(y.serial, move))

    def extract(self, y: TreeDescriptor) -> Optional[frozenset[int]]:
        return frozenset(y.serial) if len(y.serial) == self.graph.n - 1 else None

    def max_depth(self) -> int:
        return self.graph.n - 1

    def feasible(self, z: frozenset[int]) -> bool:
        return is_spanning_tree(self.graph, z)

    def cost(self, z: frozenset[int]) -> int:
        return sum(self.graph.edges[ei][2] for ei in z)

    def partial_cost(self, y: TreeDescriptor) -> int:
        return self.cost(y.serial)

    def _reachable(self, shared: set[int]) -> bool:
        """Whether an edge set shared by two descriptors is itself one.

        Default: always, as any sub-forest is reachable by merging components.
        """
        return True

    def dominates(self, y: TreeDescriptor, other: TreeDescriptor) -> bool:
        # The ranking compares children of one parent; unrelated same-level
        # descriptors are incomparable.
        if y.serial == other.serial:
            return True
        mine, theirs = set(y.serial), set(other.serial)
        if len(mine - theirs) != 1 or len(theirs - mine) != 1:
            return False
        if not self._reachable(mine & theirs):
            return False
        cost = self.partial_cost
        return (cost(y), y.serial) <= (cost(other), other.serial)

    def equivalence_key(self, y: TreeDescriptor) -> tuple[int, int, tuple]:
        # A level never recurs as a group, so no ``a`` needs to stay fixed.
        return (len(y.serial), 0, (self.partial_cost(y), y.serial))


class _TreeGrowthTheory(_SpanningTreeTheory):
    """Grow one tree from a root, attaching one outside node per level.

    Attaching v along the edge (u, v, w) costs ``label(u) + w``.  The labels,
    and with them the node set, are derived from ``serial`` by ``_labels``.
    """

    def __init__(self, graph: Graph, root: int):
        if not 0 <= root < graph.n:
            raise InvalidNode(f"root {root} out of range")
        self._adj = adjacency(graph)
        require_connected(graph, self._adj)
        super().__init__(graph)
        self.root = root

    @staticmethod
    def _label(cost: int) -> int:
        """The label of a node reached at ``cost``: the theory's one rule.

        The label is the root-path cost (SSSP) or 0 (Prim).  ``cost`` may be
        the node's root-path cost or the increment that attaches it: the two
        are equal under the first rule, and the second ignores both.
        """
        raise NotImplementedError

    def _labels(self, edges: Iterable[int]) -> dict[int, int]:
        """The label of every node of the tree ``edges`` grow from the root."""
        dist = tree_distances(self.graph, edges, self.root)
        return {v: self._label(d) for v, d in dist.items()}

    def child_moves(self, y: TreeDescriptor) -> list[tuple[int, int]]:
        # The crossing edges: those with exactly one end in the tree.
        labels = self._labels(y.serial)
        moves = [
            (labels[u] + w, ei)
            for u in labels
            for ei, v, w in self._adj[u]
            if v not in labels
        ]
        moves.sort(key=itemgetter(1))
        return moves

    def semi_congruent(self, y: TreeDescriptor, other: TreeDescriptor) -> bool:
        # Equal reached-node sets leave identical crossing-edge choices, so
        # any completing move sequence transfers verbatim.
        return self._labels(y.serial).keys() == self._labels(other.serial).keys()

    def _reachable(self, shared: set[int]) -> bool:
        # ``shared`` lies inside a tree, so it has no cycle: it is one tree
        # holding the root exactly when the root's part of it spans one node
        # more than all of it has edges.
        return len(self._labels(shared)) == len(shared) + 1

    def greedy_walk(self) -> tuple[list[int], TreeDescriptor]:
        # The crossing edges sit in a heap keyed (increment, ei, outside
        # node).  ``low[x]`` is -1 once x is inside the tree, and otherwise
        # the lowest increment pushed for x so far: an edge into x costlier
        # than that is dominated, as it can never be the cheapest child, so
        # it is counted but not pushed.  Ties are pushed, which leaves the
        # smallest edge index to the heap.  An entry goes stale, and is
        # skipped when popped, once its outside node joins.  Attaching v
        # turns v's ``inside`` edges, those whose far end is already in the
        # tree, from crossing to internal and its other edges into new
        # crossing edges, so the move count changes by ``len(edges) - 2 *
        # inside`` per level without a rescan.
        adj = self._adj
        low: list = [inf] * self.graph.n
        heap: list[tuple[int, int, int]] = []
        crossing = 0
        counts: list[int] = []
        added: list[int] = []
        v, label = self.root, 0
        for _ in range(self.max_depth()):
            low[v] = -1
            edges = adj[v]
            inside = 0
            for ej, x, w in edges:
                lowest = low[x]
                if lowest < 0:
                    inside += 1
                else:
                    inc = label + w
                    if inc <= lowest:
                        low[x] = inc
                        heappush(heap, (inc, ej, x))
            crossing += len(edges) - 2 * inside
            counts.append(crossing)
            if not crossing:
                break
            inc, ei, v = heappop(heap)
            while low[v] < 0:
                inc, ei, v = heappop(heap)
            label = self._label(inc)
            added.append(ei)
        return counts, TreeDescriptor(tuple(sorted(added)))


class PrimSpanningTree(_TreeGrowthTheory):
    """Minimum spanning tree grown from a root along cut edges; labels are 0."""

    @staticmethod
    def _label(cost: int) -> int:
        return 0


class ShortestPathTree(_TreeGrowthTheory):
    """Tree of minimum-cost root paths from a source to every node.

    The cost of a (partial) tree is the sum of the root-path costs of all its
    nodes.  A node's label is its root-path cost, so attaching node v through
    edge (u, v) contributes ``dist(u) + w``, v's own root-path cost; the
    greedy child attaches the node closest to the source.
    """

    @staticmethod
    def _label(cost: int) -> int:
        return cost

    def cost(self, z: frozenset[int]) -> int:
        return sum(tree_distances(self.graph, z, self.root).values())


class KruskalSpanningTree(_SpanningTreeTheory):
    """Minimum spanning tree built by merging forest components."""

    def __init__(self, graph: Graph):
        super().__init__(graph)
        # The walk's tables depend on the graph alone, so each theory builds
        # them once and every walk only reads them.  ``_far[v]`` holds the
        # far ends of v's edges, and ``_order`` the edge indices by weight:
        # Python's sort is stable, so sorting by weight alone gives (weight,
        # ei) order without building a tuple per edge.  Both are tuples,
        # which the garbage collector stops tracking once they hold only
        # ints or such tuples, while lists kept alive set off full
        # collections.
        edges = graph.edges
        far: list[list[int]] = [[] for _ in range(graph.n)]
        for a, b, _ in edges:
            far[a].append(b)
            far[b].append(a)
        self._far = tuple(map(tuple, far))
        # Connected iff a depth-first search from node 0 over ``far``
        # reaches every node.
        seen = [False] * graph.n
        seen[0] = True
        stack = [0]
        while stack:
            for v in far[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            raise GraphDisconnected("input graph is not connected")
        weights = [w for _, _, w in edges]
        self._order = tuple(sorted(range(len(edges)), key=weights.__getitem__))

    def child_moves(self, y: TreeDescriptor) -> list[tuple[int, int]]:
        comp = _components(self.graph, y.serial)
        return [
            (w, ei)
            for ei, (a, b, w) in enumerate(self.graph.edges)
            if comp[a] != comp[b]
        ]

    def semi_congruent(self, y: TreeDescriptor, other: TreeDescriptor) -> bool:
        # Equal partitions leave identical joining-edge choices.
        return _components(self.graph, y.serial) == _components(
            self.graph, other.serial
        )

    def greedy_walk(self) -> tuple[list[int], TreeDescriptor]:
        # Edges are tried in the theory's (weight, ei) order and skipped
        # once both ends carry one label; every node starts as a component
        # of its own.  ``ring[v]`` is v's successor in its component's
        # circular member list.  A merge counts off the edges between its
        # sides, read from the theory's ``far`` table, then relabels the
        # smaller.  The walk's own iterator over the order keeps the tables
        # intact for the next walk.
        n, edges, far = self.graph.n, self.graph.edges, self._far
        comp, ring, size = list(range(n)), list(range(n)), [1] * n
        joining = len(edges)
        order = iter(self._order)
        counts: list[int] = []
        added: list[int] = []
        for _ in range(self.max_depth()):
            counts.append(joining)
            if not joining:
                break
            for ei in order:
                a, b, _ = edges[ei]
                if comp[a] != comp[b]:
                    break
            small, large = comp[a], comp[b]
            if size[small] > size[large]:
                small, large = large, small
            moved = [small]
            while ring[moved[-1]] != small:
                moved.append(ring[moved[-1]])
            for v in moved:
                for x in far[v]:
                    if comp[x] == large:
                        joining -= 1
            for v in moved:
                comp[v] = large
            ring[small], ring[large] = ring[large], ring[small]
            size[large] += size[small]
            added.append(ei)
        return counts, TreeDescriptor(tuple(sorted(added)))
