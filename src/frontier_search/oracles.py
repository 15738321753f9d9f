"""Independent ground-truth implementations used by the test suites.

Nothing here shares code with the engine pipeline: the exhaustive searcher
expands the raw split tree with duplicate removal only (no dominance),
through ``apply_move`` over ``child_moves`` (the default ``split``); and the
classical references are textbook algorithms over the plain instance types.
Knapsack and spsp read ``child_moves`` off their own ``split``, so for them
the searcher checks ``apply_move`` against what ``split`` builds, and their
move bound is checked against the classical references and the unbounded
test theories.  The exhaustive searcher and the completion enumerator have
expansion caps, and the knapsack DP a table cap, so oversized inputs fail
loudly with ``CapExceeded`` instead of hanging.  The CLI checks every
problem against a classical reference only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Optional

from .problems.graphs import Graph, adjacency, require_connected
from .problems.knapsack import KnapsackInstance
from .theory import ProblemTheory

DEFAULT_EXPANSION_CAP = 1_000_000


class CapExceeded(RuntimeError):
    pass


def canon(solution: Any):
    """``solution`` in an orderable form: a frozenset as its sorted tuple."""
    return tuple(sorted(solution)) if isinstance(solution, frozenset) else solution


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: Optional[int]
    witness_count: int
    witness: Optional[Any]


def brute_force(
    theory: ProblemTheory, *, expansion_cap: int = DEFAULT_EXPANSION_CAP
) -> OracleResult:
    """Exact optimum by full expansion of the split tree.

    No dominance pruning; the theory's own move bound applies.  Children
    are ``apply_move`` over ``child_moves`` (the default ``split``), and
    only exact duplicates (canonically equal descriptors) are removed, so
    this visits every space the moves reach once.  Where ``child_moves`` is
    read off the theory's own ``split`` (knapsack, spsp), this checks
    ``apply_move`` against what ``split`` builds.  Its feasible extractions
    are the feasible solutions within ``theory.max_depth()`` that the moves
    reach, every optimum among them.
    """
    depth = theory.max_depth()
    better = theory.direction.better

    best_cost: Optional[int] = None
    best: set = set()
    expanded = 0

    frontier = {theory.initial().serial: theory.initial()}
    for level in range(depth + 1):
        for y in frontier.values():
            z = theory.extract(y)
            if z is not None and theory.feasible(z):
                c = theory.cost(z)
                if best_cost is None or better(c, best_cost):
                    best_cost, best = c, {z}
                elif c == best_cost:
                    best.add(z)
        if level == depth or not frontier:
            break
        nxt: dict[tuple[int, ...], Any] = {}
        for y in frontier.values():
            children = ProblemTheory.split(theory, y)
            expanded += len(children)
            if expanded > expansion_cap:
                raise CapExceeded(f"more than {expansion_cap} nodes generated")
            for child in children:
                nxt.setdefault(child.serial, child)
        frontier = nxt

    witness = min(best, key=canon) if best else None
    return OracleResult(best_cost, len(best), witness)


def enumerate_extensions(
    theory: ProblemTheory,
    y: Any,
    depth: int,
    expansion_cap: int = DEFAULT_EXPANSION_CAP,
) -> list[tuple[tuple, Any, int]]:
    """All feasible completions of ``y`` within ``depth`` further splits.

    Returns (move_sequence, solution, cost) triples; the empty sequence is
    included when ``y`` itself extracts a feasible solution.
    """
    out: list[tuple[tuple, Any, int]] = []
    expanded = 0
    layer: list[tuple[Any, tuple]] = [(y, ())]
    for step in range(depth + 1):
        for desc, moves in layer:
            z = theory.extract(desc)
            if z is not None and theory.feasible(z):
                out.append((moves, z, theory.cost(z)))
        if step == depth:
            break
        nxt = []
        for desc, moves in layer:
            for _, move in theory.child_moves(desc):
                expanded += 1
                if expanded > expansion_cap:
                    raise CapExceeded(f"more than {expansion_cap} nodes generated")
                nxt.append((theory.apply_move(desc, move), moves + (move,)))
        layer = nxt
    return out


def distances(g: Graph, source: int) -> dict[int, int]:
    """Distance to every node ``source`` reaches, by label setting."""
    adj = adjacency(g)
    dist: dict[int, int] = {}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for _, v, w in adj[u]:
            if v not in dist:
                heapq.heappush(heap, (d + w, v))
    return dist


def shortest_path_ref(g: Graph, source: int) -> dict[int, int]:
    """Single-source distances to every node of a connected graph."""
    require_connected(g)
    return distances(g, source)


def mst_ref(g: Graph) -> int:
    """Minimum spanning tree weight by sorted edges plus union-find."""
    require_connected(g)
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    total = 0
    joined = 0
    for w, _, a, b in sorted((w, i, a, b) for i, (a, b, w) in enumerate(g.edges)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            total += w
            joined += 1
            if joined == g.n - 1:
                break
    return total


def knapsack_dp_ref(inst: KnapsackInstance, cell_cap: int = 50_000_000) -> int:
    """Maximum utility by dynamic programming over capacities."""
    cells = (inst.capacity + 1) * max(inst.n, 1)
    if cells > cell_cap:
        raise CapExceeded(f"{cells} table cells exceed the cap of {cell_cap}")
    best = [0] * (inst.capacity + 1)
    for w, u in inst.items:
        for cap in range(inst.capacity, w - 1, -1):
            cand = best[cap - w] + u
            if cand > best[cap]:
                best[cap] = cand
    return best[inst.capacity]
