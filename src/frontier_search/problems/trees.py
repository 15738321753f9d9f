"""Tree-growing problems: shortest-path tree and minimum spanning tree.

All three theories here derive from one base: a partial solution is an
acyclic edge set that grows by one edge per level until it spans the graph,
and the dominance relation is a strict ranking of the children of a common
parent, so the undominated frontier always has width one (the greedy choice).
Ranking compares ``(partial_cost, serial)``, which for children of one parent
is exactly "cheapest added element, smallest edge index on ties".  The
theories differ only in ``initial``, ``child_moves``, ``apply_move``,
``semi_congruent``, the shortest-path tree's ``cost`` and ``_reachable``
(which edge sets are descriptors at all) -- the small systematic changes
that turn one derivation into another:

* minimum spanning tree, cut variant: grow one tree from a root along its
  lightest crossing edge (Prim's scheme);
* minimum spanning tree, forest variant: merge components along the lightest
  edge joining two of them (Kruskal's scheme);
* shortest-path tree: attach the outside node whose root path through the
  tree is shortest (Dijkstra's scheme); the tree cost is the sum of all
  root-path costs, so each attachment contributes the new node's distance.

The ranking only means anything between siblings; ``dominates`` therefore
answers False for same-level descriptors that do not share a parent.  Its
guarantee is carried by the surviving minimum: the cheapest child of any
parent extends to a completion at least as good as every sibling's (the
classic exchange argument), which is exactly what keeping a single
undominated child per level requires.

Each theory also overrides ``greedy_walk``, the engine's greedy path, with
the finite-differenced form of its derivation (Paige and Koenig's finite
differencing, the step Smith's KIDS applies after the global-search schema):
rather than recompute the candidate moves at every level, the walk keeps
them and updates them by the one element each level adds.  The rooted
theories keep their crossing edges in a lazy-deletion heap keyed
``(increment, edge index)``, Kruskal's keeps the edges sorted by ``(weight,
edge index)`` behind a union-find, and all three keep the level's move count
up to date incrementally.  Only the last descriptor is built.  The walks
pick the same child and count the same moves as ``child_moves`` at every
level, so optima and every search statistic equal the default walk's, in
O(m log n) time in place of O(n m).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Generator, Mapping, Optional

from ..theory import Direction, ProblemTheory
from .graphs import Graph, InvalidNode, adjacency, require_connected


@dataclass(frozen=True, eq=False)
class TreeDescriptor:
    """Tree grown from a root, as its sorted edge indices and node set.

    ``dist`` caches root-path costs and is only populated by the
    shortest-path-tree theory.
    """

    serial: tuple[int, ...]  # sorted edge indices
    nodes: frozenset[int]
    cost: int
    dist: Optional[Mapping[int, int]] = None

    @property
    def level(self) -> int:
        return len(self.serial)


@dataclass(frozen=True, eq=False)
class ForestDescriptor:
    """Spanning forest as its sorted edge indices plus its node partition.

    ``comp[v]`` is the smallest node id in v's component, so equal partitions
    compare equal componentwise.
    """

    serial: tuple[int, ...]  # sorted edge indices
    comp: tuple[int, ...]
    cost: int

    @property
    def level(self) -> int:
        return len(self.serial)


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


def is_spanning_tree(graph: Graph, z: frozenset[int]) -> bool:
    """Acyclic, connected, covers every node; decided by union-find."""
    if len(z) != graph.n - 1:
        return False
    parent = list(range(graph.n))
    for ei in z:
        if not 0 <= ei < graph.m:
            return False
        a, b, _ = graph.edges[ei]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def tree_distances(graph: Graph, z: frozenset[int], source: int) -> dict[int, int]:
    """Root-path cost of every node in the tree ``z``, starting at ``source``."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for ei in z:
        a, b, w = graph.edges[ei]
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    dist = {source: 0}
    stack = [source]
    while stack:
        u = stack.pop()
        for v, w in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + w
                stack.append(v)
    return dist


class _SpanningTreeTheory(ProblemTheory):
    """What the three spanning-tree theories share.

    A descriptor is an acyclic edge set, ``serial`` (its sorted edge
    indices) plus the running ``cost``; the theories differ only in how it
    grows.
    """

    direction = Direction.MINIMIZE
    strictly_ranked = True

    def __init__(self, graph: Graph):
        require_connected(graph)
        self.graph = graph

    def extract(self, y) -> Optional[frozenset[int]]:
        return frozenset(y.serial) if y.level == self.graph.n - 1 else None

    def max_depth(self) -> int:
        return self.graph.n - 1

    def feasible(self, z: frozenset[int]) -> bool:
        return is_spanning_tree(self.graph, z)

    def cost(self, z: frozenset[int]) -> int:
        return sum(self.graph.edges[ei][2] for ei in z)

    def partial_cost(self, y) -> int:
        return y.cost

    def _reachable(self, shared: set[int]) -> bool:
        """Whether an edge set shared by two descriptors is itself one.

        Default: always, as for forests, where any sub-forest is reachable
        by merging components.
        """
        return True

    def dominates(self, y, other) -> bool:
        # The ranking compares children of one parent; unrelated same-level
        # descriptors are incomparable.
        if y.serial == other.serial:
            return True
        mine, theirs = set(y.serial), set(other.serial)
        if len(mine - theirs) != 1 or len(theirs - mine) != 1:
            return False
        if not self._reachable(mine & theirs):
            return False
        return (y.cost, y.serial) <= (other.cost, other.serial)


class _TreeGrowthTheory(_SpanningTreeTheory):
    """Shared machinery for the rooted tree-growing theories."""

    def __init__(self, graph: Graph, root: int):
        if not 0 <= root < graph.n:
            raise InvalidNode(f"root {root} out of range")
        super().__init__(graph)
        self.root = root
        self._adj = adjacency(graph)

    def _crossing(self, y: TreeDescriptor) -> list[tuple[int, int, int]]:
        """Edges with exactly one endpoint inside, as (ei, inside, outside)."""
        out = [
            (ei, u, v)
            for u in y.nodes
            for ei, v, _ in self._adj[u]
            if v not in y.nodes
        ]
        out.sort()
        return out

    def semi_congruent(self, y: TreeDescriptor, other: TreeDescriptor) -> bool:
        # Equal reached-node sets leave identical crossing-edge choices, so
        # any completing move sequence transfers verbatim.
        return y.nodes == other.nodes

    def greedy_walk(
        self, y: TreeDescriptor, depth: int
    ) -> Generator[int, None, TreeDescriptor]:
        # The crossing edges sit in a heap keyed (increment, ei, outside
        # node); an entry goes stale, and is skipped when popped, once its
        # outside node joins.  Attaching v turns v's edges to the inside
        # from crossing to internal and its edges to the outside into new
        # crossing edges, which keeps the move count without a rescan.
        # Only shortest-path-tree descriptors carry ``dist``: there an
        # attachment costs the new node's root-path cost, else its weight.
        adj = self._adj
        dist = dict(y.dist) if y.dist is not None else None
        inside = set(y.nodes)
        heap = [
            ((dist[u] if dist is not None else 0) + w, ei, v)
            for u in inside
            for ei, v, w in adj[u]
            if v not in inside
        ]
        heapify(heap)
        crossing = len(heap)
        added: list[int] = []
        cost = y.cost
        for _ in range(depth):
            yield crossing
            if not crossing:
                break
            inc, ei, v = heappop(heap)
            while v in inside:
                inc, ei, v = heappop(heap)
            inside.add(v)
            added.append(ei)
            cost += inc
            base = 0
            if dist is not None:
                dist[v] = base = inc
            for ej, x, w in adj[v]:
                if x in inside:
                    crossing -= 1
                else:
                    crossing += 1
                    heappush(heap, (base + w, ej, x))
        return TreeDescriptor(
            tuple(sorted(y.serial + tuple(added))), frozenset(inside), cost, dist
        )

    def _reachable(self, shared: set[int]) -> bool:
        # ``shared`` lies inside a tree, so it has no cycle: it is one tree
        # holding the root exactly when it spans one node more than its
        # edge count, the root included.
        nodes = {self.root}
        for ei in shared:
            nodes.update(self.graph.edges[ei][:2])
        return len(nodes) == len(shared) + 1


class PrimSpanningTree(_TreeGrowthTheory):
    """Minimum spanning tree grown from a root node along cut edges."""

    def initial(self) -> TreeDescriptor:
        return TreeDescriptor((), frozenset((self.root,)), 0)

    def child_moves(self, y: TreeDescriptor) -> list[tuple[int, int]]:
        return [(self.graph.edges[ei][2], ei) for ei, _, _ in self._crossing(y)]

    def apply_move(self, y: TreeDescriptor, move: int) -> TreeDescriptor:
        a, b, w = self.graph.edges[move]
        new = b if a in y.nodes else a
        return TreeDescriptor(_with_edge(y.serial, move), y.nodes | {new}, y.cost + w)


class ShortestPathTree(_TreeGrowthTheory):
    """Tree of minimum-cost root paths from a source to every node.

    The cost of a (partial) tree is the sum of the root-path costs of all its
    nodes, so attaching node v through edge (u, v) contributes
    ``dist(u) + w``; the greedy child attaches the node closest to the source.
    """

    def initial(self) -> TreeDescriptor:
        return TreeDescriptor((), frozenset((self.root,)), 0, {self.root: 0})

    def child_moves(self, y: TreeDescriptor) -> list[tuple[int, int]]:
        assert y.dist is not None
        return [
            (y.dist[u] + self.graph.edges[ei][2], ei)
            for ei, u, _ in self._crossing(y)
        ]

    def apply_move(self, y: TreeDescriptor, move: int) -> TreeDescriptor:
        assert y.dist is not None
        a, b, w = self.graph.edges[move]
        u, new = (a, b) if a in y.nodes else (b, a)
        d = y.dist[u] + w
        dist = dict(y.dist)
        dist[new] = d
        return TreeDescriptor(
            _with_edge(y.serial, move), y.nodes | {new}, y.cost + d, dist
        )

    def cost(self, z: frozenset[int]) -> int:
        # Recomputed from scratch, independently of descriptor caches.
        return sum(tree_distances(self.graph, z, self.root).values())

    def distances(self, z: frozenset[int]) -> dict[int, int]:
        return tree_distances(self.graph, z, self.root)


class KruskalSpanningTree(_SpanningTreeTheory):
    """Minimum spanning tree built by merging forest components."""

    def initial(self) -> ForestDescriptor:
        return ForestDescriptor((), tuple(range(self.graph.n)), 0)

    def child_moves(self, y: ForestDescriptor) -> list[tuple[int, int]]:
        return [
            (w, ei)
            for ei, (a, b, w) in enumerate(self.graph.edges)
            if y.comp[a] != y.comp[b]
        ]

    def apply_move(self, y: ForestDescriptor, move: int) -> ForestDescriptor:
        a, b, w = self.graph.edges[move]
        ca, cb = y.comp[a], y.comp[b]
        keep, drop = (ca, cb) if ca < cb else (cb, ca)
        comp = tuple(keep if c == drop else c for c in y.comp)
        return ForestDescriptor(_with_edge(y.serial, move), comp, y.cost + w)

    def semi_congruent(self, y: ForestDescriptor, other: ForestDescriptor) -> bool:
        # Equal partitions leave identical joining-edge choices.
        return y.comp == other.comp

    def greedy_walk(
        self, y: ForestDescriptor, depth: int
    ) -> Generator[int, None, ForestDescriptor]:
        # Edges are tried in (weight, ei) order and skipped once union-find
        # puts both ends in one component.  ``between[c]`` counts the edges
        # from component c to each other one; a merge subtracts the pair's
        # count from the joining-edge total and folds the smaller map into
        # the larger.
        edges = self.graph.edges
        parent = list(y.comp)  # comp[v] is its component's root
        between: dict[int, dict[int, int]] = {c: {} for c in parent}
        joining = 0
        for a, b, _ in edges:
            ca, cb = parent[a], parent[b]
            if ca != cb:
                joining += 1
                between[ca][cb] = between[ca].get(cb, 0) + 1
                between[cb][ca] = between[cb].get(ca, 0) + 1
        order = iter(sorted((w, ei) for ei, (_, _, w) in enumerate(edges)))
        added: list[int] = []
        cost = y.cost
        for _ in range(depth):
            yield joining
            if not joining:
                break
            for w, ei in order:
                a, b, _ = edges[ei]
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    break
            if len(between[ra]) > len(between[rb]):
                ra, rb = rb, ra
            small, large = between.pop(ra), between[rb]
            joining -= small.pop(rb)
            del large[ra]
            for c, k in small.items():
                links = between[c]
                del links[ra]
                links[rb] = links.get(rb, 0) + k
                large[c] = large.get(c, 0) + k
            parent[ra] = rb
            added.append(ei)
            cost += w
        # Label each component by its smallest node, as ``comp`` requires.
        label: dict[int, int] = {}
        comp = tuple(label.setdefault(_find(parent, v), v) for v in range(self.graph.n))
        return ForestDescriptor(tuple(sorted(y.serial + tuple(added))), comp, cost)
