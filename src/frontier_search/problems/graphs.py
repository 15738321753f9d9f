"""Undirected weighted graphs used by the path and tree problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class GraphValidationError(ValueError):
    pass


class InvalidNode(GraphValidationError):
    pass


class GraphDisconnected(GraphValidationError):
    pass


@dataclass(frozen=True)
class Graph:
    """Edge-indexed undirected graph with non-negative integer weights.

    Nodes are ``0..n-1``.  Parallel edges are permitted, self-loops are not;
    edges are stored as given and incidence checks match either endpoint.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphValidationError(f"node count must be positive, got {self.n}")
        for i, (a, b, w) in enumerate(self.edges):
            if a == b:
                raise GraphValidationError(f"edge {i}: self-loop at node {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidNode(f"edge {i}: endpoint out of range ({a}, {b})")
            if w < 0:
                raise GraphValidationError(f"edge {i}: negative weight {w}")

    @property
    def m(self) -> int:
        return len(self.edges)


Adjacency = list[list[tuple[int, int, int]]]


def adjacency(g: Graph) -> Adjacency:
    """Per-node incidence lists of ``(edge_index, other_endpoint, weight)``."""
    adj: Adjacency = [[] for _ in range(g.n)]
    for i, (a, b, w) in enumerate(g.edges):
        adj[a].append((i, b, w))
        adj[b].append((i, a, w))
    return adj


def is_connected(g: Graph, adj: Optional[Adjacency] = None) -> bool:
    """Whether every node reaches node 0.

    ``adj`` is ``adjacency(g)`` when the caller already holds it; it is
    built here otherwise.
    """
    if g.n == 1:
        return True
    if adj is None:
        adj = adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for _, v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def require_connected(g: Graph, adj: Optional[Adjacency] = None) -> None:
    if not is_connected(g, adj):
        raise GraphDisconnected("input graph is not connected")
