"""Single-pair shortest path over simple paths.

A partial solution is a simple path growing edge by edge from the source
node.  Its descriptor, an immutable tuple, stores the path once, as its
edges in walk order plus its end node and weight; the node set is derived
from the edges where it is needed, and ``split`` derives it once for all of
a path's children.  ``split`` is the one statement of a path's moves:
``child_moves`` reads them off its children.  A solution is extractable as
soon as the path's end node is the target.  Paths ending at the same node
are compared by accumulated weight: the cheaper one dominates, which keeps
at most one survivor per end node, so the frontier is never wider than the
node count ``n``.  The relation deliberately ignores which interior nodes
the paths visited, and how many edges they have.  That is stronger than what
same-extension transfer justifies, so ``semi_congruent`` additionally
demands that the dominating path's node set is contained in the other's.

The stronger relation is still sound, given non-negative weights.  Take an
optimal path P* with the fewest edges, and a same-level path y that ends at
P*'s k-th node and costs no more than P*'s first k edges.  Then y followed by
the rest of P* is a simple path: otherwise it revisits a node, and cutting
out the cycle (of weight >= 0) leaves a path that costs no more than P* and
has fewer edges.  So y is the prefix of another optimal path with the fewest
edges, and by induction over the levels one such path reaches the target.

Across levels the engine drops only the strictly costlier path.  Let y end
at v and cost strictly more than a path y' that reached v at an earlier
level.  For any path P through y, y' followed by the rest of P, with its
cycles cut, is a simple path that costs strictly less than P.  So y is a
prefix of no optimal path, and the optima stay the same.  A tie is kept: the
cut path then merely ties P, so y may still be the prefix of an optimum, and
dropping it would drop that optimum from the result.

``split`` also prunes by bound, as A* does with a consistent
heuristic (Hart, Nilsson and Raphael 1968), but to filter moves, never to
order them.  The incumbent is the cost of a feasible solution the theory
holds before the search starts, from one breadth-first search from the
source, O(n + m).  That search keeps a swept cost per node: a node starts at
the cost it is discovered at, and each node, in breadth-first order, lowers
the swept cost of every neighbour through its own, one in-order pass of
Bellman's relaxation (Bellman 1958; Moore 1959).  A second pass over the
same order lowers them again; it reaches no new node, and it skips a node
whose cost has not fallen since the first pass reached it, as such a node
can lower nothing.  The incumbent is the target's swept cost.  A swept
cost is set only at discovery or when it strictly falls, each time from a
node u with the cost u holds then, which was set earlier.  So following the
sources of a node's cost back in time walks back to the source, and the
walk costs the node's swept cost.  It visits no node x twice: x's later
cost would then be its earlier cost plus a closed walk of weight >= 0, no
lower, yet x's costs never rise and the later one was set strictly below
the cost x held then.  So every swept cost is the cost of a simple path,
whatever the number of passes, and it is at most the node's cheapest
fewest-edge path, which the first pass reaches by induction in
breadth-first order.  After p passes a node's swept cost is at most the
cost of every path to it whose nodes fall into at most p runs that ascend
in breadth-first order; a cheaper path that steps back against the order
twice or more can still leave the incumbent above the optimum.  The passes
stop at two: run to a fixpoint they are Bellman-Ford, O(nm), and would hand
the search Dijkstra's answer before it starts.

A lower bound h on the rest of the way is 0 at the target and, at any other
node, the lightest edge at the target, which every route there ends with.
A move is kept only when the child's cost plus h at its end reaches no
higher than the incumbent; ties are kept, so every prefix of every optimum
survives.  h is consistent, so along a path the bound never falls, and a
cheaper path to the same node has a bound no worse; equal costs at one node
have equal bounds.  So each level keeps exactly the unbounded search's
survivors that the bound admits, and the optima stay the same.  With no
route to the target no move is kept.  None of this depends on which
feasible cost the incumbent is.

A node's limit is also at most its swept cost, so a child c at v that costs
more than swept(v) is never built.  By the cross-level argument above, with
the simple path of cost swept(v) as y', c is the prefix of no optimum.  The
cut keeps every member that costs Dijkstra's distance to its end node, since
that distance is at most the swept cost, and each of its prefixes costs the
distance to its own end node too.  Nothing cut ties or beats such a member,
so each level keeps the same members of that cost in the same order as
without the cut, and the optima stay the same.  The cut may change which
costlier members a level keeps.

``split`` reads a node's moves from a table the theory keeps per node: the
node's adjacency entries ``(ei, other, w)`` with ``w <= limit(other)``, in
the adjacency's edge-index order.  The table is exact: a path costs at
least 0, so an entry that fails ``w <= limit(other)`` fails ``cost + w <=
limit(other)`` for every path that ends at the node, and every move
``split`` keeps is in the table, in the same canonical order.  The limits
are the theory's own and never change once read, so neither does a table.
A node's first split scans its adjacency and its second builds the table:
a new theory solved once builds none for the many nodes it splits only
once, and a theory solved again reads tables throughout.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from ..theory import Direction, ProblemTheory
from .graphs import Graph, InvalidNode, adjacency


class PathDescriptor(NamedTuple):
    """Simple path from the source, as a sequence of edge indices."""

    serial: tuple[int, ...]  # edge indices in walk order
    end: int
    cost: int


class SinglePairShortestPath(ProblemTheory):
    """Find a minimum-weight simple path between two nodes."""

    direction = Direction.MINIMIZE
    strictly_ranked = False

    def __init__(self, graph: Graph, source: int, target: int):
        if not 0 <= source < graph.n:
            raise InvalidNode(f"source {source} out of range")
        if not 0 <= target < graph.n:
            raise InvalidNode(f"target {target} out of range")
        self.graph = graph
        self.source = source
        self.target = target
        self._adj = adjacency(graph)
        # Per node: None until its first split, False after it, then its
        # table of moves, built by its second split.
        self._moves: list = [None] * graph.n

    def initial(self) -> PathDescriptor:
        return PathDescriptor((), self.source, 0)

    def _nodes(self, y: PathDescriptor) -> set[int]:
        """The nodes on the path: the source plus both ends of every edge."""
        nodes = {self.source}
        edges = self.graph.edges
        for ei in y.serial:
            a, b, _ = edges[ei]
            nodes.add(a)
            nodes.add(b)
        return nodes

    @cached_property
    def _swept(self) -> list[int]:
        """Per node, its swept cost, -1 if the node is unreached.  Each node,
        in breadth-first order, lowers the swept cost of every neighbour
        through its own; a second pass over the same order does it again,
        for the nodes whose cost has fallen since the first reached them."""
        swept = [-1] * self.graph.n
        swept[self.source] = 0
        order, first = [self.source], []
        adj = self._adj
        for u in order:
            su = swept[u]
            first.append(su)
            for _, v, w in adj[u]:
                if swept[v] < 0:
                    swept[v] = su + w
                    order.append(v)
                elif su + w < swept[v]:
                    swept[v] = su + w
        # A node still at the cost it was swept with lowers nothing: every
        # neighbour is already within that cost plus the edge.
        for u, fu in zip(order, first):
            su = swept[u]
            if su < fu:
                for _, v, w in adj[u]:
                    if su + w < swept[v]:
                        swept[v] = su + w
        return swept

    @cached_property
    def incumbent(self) -> Optional[int]:
        """The target's swept cost, ``None`` if no path reaches the target."""
        swept = self._swept[self.target]
        return swept if swept >= 0 else None

    @cached_property
    def _limits(self) -> list[int]:
        """Per node, the highest cost a path ending there may have: the
        incumbent less h, and no more than the node's swept cost; -1,
        admitting nothing, with no incumbent."""
        if self.incumbent is None:
            return [-1] * self.graph.n
        rest = min((w for _, _, w in self._adj[self.target]), default=0)
        # min(cap, s) per node, without a call per node.
        cap = self.incumbent - rest
        limits = [s if s < cap else cap for s in self._swept]
        limits[self.target] = self.incumbent
        return limits

    def child_moves(self, y: PathDescriptor) -> list[tuple[int, int]]:
        # The moves ``split`` keeps, read off its children.
        return [(c.cost - y.cost, c.serial[-1]) for c in self.split(y)]

    def apply_move(self, y: PathDescriptor, move: int) -> PathDescriptor:
        serial, end, cost = y
        a, b, w = self.graph.edges[move]
        return PathDescriptor(serial + (move,), b if end == a else a, cost + w)

    def split(self, y: PathDescriptor) -> list[PathDescriptor]:
        # Only edges hanging off the end node that reach an unvisited node
        # within its limit; anything else could never become a feasible path
        # as cheap as the incumbent, or costs more than a simple path to that
        # node whose cost the theory holds.  ``adjacency`` lists them in
        # increasing edge index, the canonical child order, and the node's
        # table keeps that order.  The visited set is derived once per
        # parent, and only when some move is within its limit.
        serial, end, cost = y
        limits, moves = self._limits, self._moves[end]
        if moves is None:
            self._moves[end] = False
            moves = self._adj[end]
        elif moves is False:
            moves = self._moves[end] = [
                move for move in self._adj[end] if move[2] <= limits[move[1]]
            ]
        kept = [move for move in moves if cost + move[2] <= limits[move[1]]]
        if not kept:
            return kept
        visited = self._nodes(y)
        return [
            tuple.__new__(PathDescriptor, (serial + (ei,), other, cost + w))
            for ei, other, w in kept
            if other not in visited
        ]

    def extract(self, y: PathDescriptor) -> Optional[tuple[int, ...]]:
        return y.serial if y.end == self.target else None

    def max_depth(self) -> int:
        return self.graph.m

    def feasible(self, z: tuple[int, ...]) -> bool:
        cur = self.source
        seen = {cur}
        for ei in z:
            if not 0 <= ei < self.graph.m:
                return False
            a, b, _ = self.graph.edges[ei]
            if cur == a:
                nxt = b
            elif cur == b:
                nxt = a
            else:
                return False
            if nxt in seen:
                return False
            seen.add(nxt)
            cur = nxt
        return cur == self.target

    def cost(self, z: tuple[int, ...]) -> int:
        return sum(self.graph.edges[ei][2] for ei in z)

    def partial_cost(self, y: PathDescriptor) -> int:
        return y.cost

    def semi_congruent(self, y: PathDescriptor, other: PathDescriptor) -> bool:
        return y.end == other.end and self._nodes(y) <= self._nodes(other)

    def dominates(self, y: PathDescriptor, other: PathDescriptor) -> bool:
        return y.end == other.end and y.cost <= other.cost

    def dominance_key(self, y: PathDescriptor) -> int:
        return y.end

    def equivalence_key(self, y: PathDescriptor) -> tuple[int, int, int]:
        # ``dominates`` compares cost alone within one end node, so equal
        # end and cost is exactly mutual dominance.  ``a`` is always 0, so a
        # group that recurs at a later level is compared by cost alone.
        return (y.end, 0, y.cost)
