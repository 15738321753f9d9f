"""Level-by-level frontier search with dominance pruning.

The solver keeps one frontier of undominated, pairwise-distinct descriptors
per depth level and runs each level through a fixed pipeline:

    expand -> reduce_equivalent -> filter_dominated -> collect_locals

Feasible solutions are read off each post-prune frontier (including the
initial one) and the cost-extremal filter is applied to all of them once at
the end.  The search stops when the frontier empties or at the theory's
``max_depth()``, the only depth bound.

``reduce_equivalent`` removes duplicate serials and merges mutual
dominances.  When a theory gives an ``equivalence_key``, dominance within a
group is a 2-D order: ``reduce_equivalent`` keys each child once and passes
the keys on with the representatives, and ``filter_dominated`` finds the
undominated members with one sort and a sweep (the Pareto-list method of
Nemhauser and Ullmann, and of Kung, Luccio and Preparata).  Without one,
``reduce_equivalent`` runs ``dedupe`` first, and both stages test pairs of
members with ``dominates`` within each ``dominance_key`` group; that
pairwise path is also the reference the keyed one is tested against.

Dominance also reaches back across levels.  ``solve`` keeps one history per
run of what each group kept at earlier levels, and ``filter_dominated``
drops a member that an earlier level strictly dominates: its ``b`` is above
the group's lowest earlier ``b`` (keyed, checked before the sort), or an
earlier survivor dominates it without being dominated back (pairwise).
Ties across levels survive.  A theory whose groups encode the level
(knapsack, ``IdentityDominance``) is unaffected; for spsp a node's cheapest
earlier path prunes every costlier path that reaches it later, as
Dijkstra's labels do.

When a theory declares ``strictly_ranked``, every level keeps exactly one
child, the cheapest (the theory's ranking breaking ties), so the pipeline
collapses to the theory's ``greedy_walk``: from ``initial()`` it takes the
greedy child level by level, for at most ``max_depth()`` levels and without
materializing the others, and returns each level's candidate count and the
last descriptor it reaches.  A level of ``n`` candidates counts ``n``
generated, ``n - 1`` dominance-pruned and one survivor, and a level without
candidates ends the walk with a ``(0, 0)`` row; locals are read off the
returned descriptor only.  The outcome, including all statistics, is
identical to the generic pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Optional

from .theory import Direction, ProblemTheory, Solution


class Mode(Enum):
    EXHAUSTIVE = "exhaustive"
    GREEDY = "greedy"


class GreedyViolation(RuntimeError):
    """Greedy mode found an undominated frontier wider than one."""

    def __init__(self, level: int, width: int):
        super().__init__(f"undominated frontier has width {width} at level {level}")
        self.level = level
        self.width = width


@dataclass(frozen=True)
class EngineConfig:
    #: A ``Mode`` or its value; ``"greedy"`` becomes ``Mode.GREEDY``, and
    #: anything else raises ``ValueError``.
    mode: Mode = Mode.EXHAUSTIVE

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))


@dataclass(frozen=True)
class SearchStats:
    #: The number of rows in ``per_level_width``.
    levels: int
    #: The sum of the rows' raw widths.
    generated: int
    duplicates_removed: int
    equivalence_merged: int
    #: Children dropped as strictly dominated, by a member of their own
    #: level or by what their group kept at an earlier level.
    dominated_pruned: int
    locals_found: int
    #: One (raw_width, undominated_width) pair per expanded level.
    per_level_width: tuple[tuple[int, int], ...]

    def accounting_identity_holds(self) -> bool:
        """Every generated child is removed exactly once or survives."""
        survived = sum(undom for _, undom in self.per_level_width)
        return (
            self.generated
            == self.duplicates_removed
            + self.equivalence_merged
            + self.dominated_pruned
            + survived
        )


@dataclass(frozen=True)
class SolveResult:
    #: All optimal feasible solutions found; a subset of the true optimum set,
    #: nonempty whenever any feasible solution is reachable within
    #: ``max_depth()``.
    optima: frozenset
    optimal_cost: Optional[int]
    stats: SearchStats


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def expand(theory: ProblemTheory, spaces: Iterable[Any]) -> list[Any]:
    """All children of the frontier, concatenated in canonical member order."""
    children: list[Any] = []
    for y in spaces:
        children.extend(theory.split(y))
    return children


def dedupe(children: Iterable[Any]) -> tuple[list[Any], int]:
    """Drop canonical-equality duplicates, keeping each serial's first child.

    Survivors keep their input order, so the level stays in canonical
    order.  Serials are hashed, never ordered.
    """
    first: dict = {}
    n = 0
    for n, child in enumerate(children, 1):
        first.setdefault(child.serial, child)
    return list(first.values()), n - len(first)


def reduce_equivalent(theory: ProblemTheory, children: list[Any]) -> tuple[Any, int, int]:
    """Drop duplicates and collapse mutual-dominance classes to their first member.

    Returns ``(reps, merged, duplicates)``.  Each class is represented by its
    first member in input order (in the engine, the first generated), and
    ``reps`` keeps that order: a dict from equivalence key to representative
    on the keyed path, a list on the pairwise path.  Either way
    ``len(reps)`` is the number of representatives, and ``filter_dominated``
    takes ``reps`` as it is.

    Keyed, ``equivalence_key`` is called once per child.  Equal serials give
    equal keys, so every copy of a serial falls in one run of equal keys: a
    tied member is a duplicate when its serial equals that of an earlier
    member of its run, and merged otherwise.  Only the members of runs
    longer than one are hashed by serial.  The pairwise path runs ``dedupe``
    first, then compares each member with the representative of every class
    found so far in its ``dominance_key`` group.
    """
    key = theory.equivalence_key
    if key is not None:
        reps_by_key: dict = {}
        tied = []
        for y in children:
            k = key(y)
            if k in reps_by_key:
                tied.append((k, y))
            else:
                reps_by_key[k] = y
        # One set for all runs of tied keys: a serial can only repeat within
        # its own run.
        serials = {reps_by_key[k].serial for k, _ in tied}
        duplicates = 0
        for _, y in tied:
            if y.serial in serials:
                duplicates += 1
            else:
                serials.add(y.serial)
        return reps_by_key, len(tied) - duplicates, duplicates
    spaces, duplicates = dedupe(children)
    merged = 0
    reps: list[Any] = []
    groups: dict = {}
    for y in spaces:
        group = groups.setdefault(theory.dominance_key(y), [])
        for rep in group:
            if theory.dominates(y, rep) and theory.dominates(rep, y):
                merged += 1
                break
        else:
            group.append(y)
            reps.append(y)
    return reps, merged, duplicates


def filter_dominated(theory: ProblemTheory, reps: Any, history: dict) -> tuple[list[Any], int]:
    """Remove every member strictly dominated by another representative.

    ``reps`` is what ``reduce_equivalent`` returns: free of mutual
    dominances, which makes survival order-independent.  Survivors keep its
    order.  ``history`` holds what earlier levels of one run left behind, per
    dominance group: the lowest surviving ``b`` on the keyed path, every
    survivor on the pairwise path.  A member strictly dominated by an earlier
    level is removed too, and the level's survivors are added to
    ``history``; a run's first level starts with an empty one.
    """
    if theory.equivalence_key is not None:
        return _pareto_sweep(reps, history)
    keys = [theory.dominance_key(y) for y in reps]
    groups: dict = {}
    for y, k in zip(reps, keys):
        groups.setdefault(k, []).append(y)
    kept = [
        (y, k)
        for y, k in zip(reps, keys)
        if not any(other is not y and theory.dominates(other, y) for other in groups[k])
        and not any(
            theory.dominates(o, y) and not theory.dominates(y, o)
            for o in history.get(k, ())
        )
    ]
    for y, k in kept:
        history.setdefault(k, []).append(y)
    return [y for y, _ in kept], len(reps) - len(kept)


#: Equal to no key's group, so a sweep's first member always opens a group.
_NO_GROUP: Any = object()


def _pareto_sweep(reps: dict, history: dict) -> tuple[list[Any], int]:
    """``filter_dominated`` for ``reps`` keyed by their ``equivalence_key``.

    A group that recurs across levels keeps one ``a``, so an earlier level
    dominates a member exactly when the group's lowest earlier ``b`` in
    ``history`` is strictly smaller; ties survive.  Such members are dropped
    first, before the sort.  In ``(group, a, b)`` order a remaining member is
    dominated within its level exactly when an earlier member of its group
    has a ``b`` no greater; the keys are distinct, so the strict test is
    exact.
    """
    earlier = history.get
    live = [k for k in reps if (h := earlier(k[0])) is None or k[2] <= h]
    kept = set()
    group: Any = _NO_GROUP
    lowest: Any = None
    for k in sorted(live):
        g, _, b = k
        if g != group:
            if group is not _NO_GROUP:
                history[group] = lowest
            group, lowest = g, b
            kept.add(k)
        elif b < lowest:
            lowest = b
            kept.add(k)
    if group is not _NO_GROUP:
        history[group] = lowest
    survivors = [reps[k] for k in live if k in kept]
    return survivors, len(reps) - len(survivors)


def collect_locals(theory: ProblemTheory, spaces: Iterable[Any]) -> list[tuple[Solution, int]]:
    """Feasible solutions extractable directly from frontier members."""
    found = []
    for y in spaces:
        z = theory.extract(y)
        if z is not None and theory.feasible(z):
            found.append((z, theory.cost(z)))
    return found


def opt_c(
    candidates: Iterable[tuple[Solution, int]], direction: Direction
) -> tuple[Optional[int], frozenset]:
    """Cost-extremal subset of a candidate set; ties are all retained."""
    best_cost: Optional[int] = None
    best: set = set()
    for z, c in candidates:
        if best_cost is None or direction.better(c, best_cost):
            best_cost = c
            best = {z}
        elif c == best_cost:
            best.add(z)
    return best_cost, frozenset(best)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve(theory: ProblemTheory, config: EngineConfig | None = None) -> SolveResult:
    """Run the search to completion and return all optima found with stats.

    Deterministic for fixed inputs.  Raises GreedyViolation in greedy mode as
    soon as an undominated frontier is wider than one.  The search stops when
    the frontier empties or at ``theory.max_depth()``.
    """
    config = config or EngineConfig()

    duplicates = merged = pruned = 0

    if theory.strictly_ranked:
        counts, last = theory.greedy_walk()
        rows = [(n_moves, min(n_moves, 1)) for n_moves in counts]
        pruned = sum(raw - undom for raw, undom in rows)
        found = collect_locals(theory, [last])

    else:
        depth = theory.max_depth()
        history: dict = {}
        rows = []
        frontier = [theory.initial()]
        found = collect_locals(theory, frontier)
        while frontier and len(rows) < depth:
            children = expand(theory, frontier)
            reps, n_merged, n_dup = reduce_equivalent(theory, children)
            merged += n_merged
            duplicates += n_dup
            survivors, n_pruned = filter_dominated(theory, reps, history)
            pruned += n_pruned
            rows.append((len(children), len(survivors)))

            if config.mode is Mode.GREEDY and len(survivors) > 1:
                raise GreedyViolation(len(rows), len(survivors))

            frontier = survivors
            found.extend(collect_locals(theory, frontier))

    best_cost, best = opt_c(found, theory.direction)
    stats = SearchStats(
        levels=len(rows),
        generated=sum(raw for raw, _ in rows),
        duplicates_removed=duplicates,
        equivalence_merged=merged,
        dominated_pruned=pruned,
        locals_found=len(found),
        per_level_width=tuple(rows),
    )
    return SolveResult(optima=best, optimal_cost=best_cost, stats=stats)
