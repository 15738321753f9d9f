"""Problem-theory interface for dominance-pruned frontier search.

A problem is plugged into the search engine as a ``ProblemTheory``: a bundle
of pure operations over immutable partial-solution descriptors.  The engine
only ever talks to this interface; everything problem-specific (what a
descriptor is, how it splits, when a complete solution can be read off, how
partial solutions dominate each other) lives in the theory object.

Descriptors are immutable values and must expose one attribute:

``serial``
    A tuple of ints that canonically serializes the descriptor, one element
    per split, so a descriptor's level is ``len(serial)``.  Two
    descriptors denote the same search space iff their serials are equal;
    the engine hashes serials but never orders them.  Its canonical order
    is the order the search generates descriptors in: the frontier's
    order, then each member's ``child_moves`` order.  Each pipeline stage
    keeps that order and, among tied members, the first.

The engine reads dominance only through the required ``equivalence_key``,
a 2-D order per group.  ``dominates``, ``semi_congruent`` and
``dominance_key`` state the same relation pairwise, as the paper does; the
engine never calls them, and the tests check the key against them.

The engine compares descriptors only by ``serial`` or by identity, never as
whole values, so a descriptor may be a ``NamedTuple`` even though tuples
compare field by field.  The shipped theories' descriptors are, because a
tuple is cheap to build and to read.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Hashable, Optional


class Direction(Enum):
    """Optimization sense.

    Maximization is realized by flipping comparisons; stored costs are never
    negated, so costs stay non-negative ints in both directions.
    """

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: int, b: int) -> bool:
        """Strictly better."""
        return a < b if self is Direction.MINIMIZE else a > b

    def at_least_as_good(self, a: int, b: int) -> bool:
        return a <= b if self is Direction.MINIMIZE else a >= b


# A move is the problem-specific piece of information consumed by one split:
# an edge index for the graph problems, a 0/1 decision for knapsack.
Move = Hashable
Solution = Any


class ProblemTheory(ABC):
    """Operations instantiating the search theory for one problem instance.

    All methods are pure functions of their arguments; theories and
    descriptors are immutable after construction.  A theory may cache
    tables derived from its input on first use, as a ``cached_property``
    does, but a cache never changes a result.  The problem input itself is
    bound at construction time and validated there.
    """

    #: Optimization sense used by the engine when comparing solution costs
    #: and by the default dominance test.
    direction: Direction = Direction.MINIMIZE

    #: True when ``dominates`` is a total strict ranking on the children of
    #: any one frontier member, keyed by ``(partial_cost, serial)``.  The
    #: engine then keeps exactly one child per level (the greedy choice):
    #: it runs ``greedy_walk`` in place of its pipeline, books each level
    #: from the move counts the walk returns, and reads the locals of the
    #: search off the walk's last descriptor only, so ``extract`` must be
    #: ``None`` on every descriptor the walk passes before it.
    strictly_ranked: bool = False

    # -- space structure ---------------------------------------------------

    @abstractmethod
    def initial(self) -> Any:
        """The level-0 descriptor covering the whole candidate space."""

    @abstractmethod
    def child_moves(self, y: Any) -> list[tuple[int, Move]]:
        """The immediate split moves of ``y`` with their cost increments.

        Returns ``(increment, move)`` pairs such that applying ``move``
        yields a child with ``partial_cost(child) == partial_cost(y) +
        increment``.  Pairs are listed in canonical child order; the list is
        empty for terminal spaces.

        A theory may omit a move into a subspace that cannot reach a
        solution as good as one it already holds, such as one whose
        optimistic bound is strictly worse than an incumbent; a move whose
        bound ties the incumbent must be kept, so every optimum stays
        reachable.  Along a path the bound must never improve, and a
        dominator's bound must be at least as good as what it dominates, so
        that dominance prunes the same members with or without it.

        A theory may also omit a child that a descriptor it already holds
        strictly dominates: every solution through the child is strictly
        worse than one through that descriptor, as for an spsp child that
        costs more than a simple path the theory holds to the same node.
        Such a cut may change which members a level keeps, but not the
        optima.
        """

    @abstractmethod
    def apply_move(self, y: Any, move: Move) -> Any:
        """The child of ``y`` produced by one split move."""

    def split(self, y: Any) -> list[Any]:
        """All immediate subspaces of ``y``, in canonical order.

        Default: ``apply_move`` on each of ``child_moves``.  A theory may
        override it to build all children in one call, deriving what the
        parent's children share once; the result must equal the default's
        list: the same children in the same order, each of the same type
        with the same field values.  Such a theory may then read
        ``child_moves`` off ``split`` (each child's increment and last
        move), so its moves and any bound on them are stated once, as
        knapsack and spsp do.  A subclass of it that sets ``split`` back to
        this default must state its own ``child_moves``, or each of the two
        calls the other without end.
        """
        return [self.apply_move(y, move) for _, move in self.child_moves(y)]

    def greedy_walk(self) -> tuple[list[int], Any]:
        """Take the cheapest child level by level, for ``strictly_ranked``.

        Starting at ``initial()``, for each of at most ``max_depth()``
        levels: count the current descriptor's child moves, stop if there
        are none, and otherwise move to the child of the smallest
        ``(increment, move)``: the first of the cheapest children when
        ``child_moves`` lists moves in increasing order, as the shipped
        theories do.  Returns each level's move count and the last
        descriptor reached.

        Default: ``child_moves``, ``min`` and ``apply_move`` at every level.
        A theory may override it with an incremental walk that keeps its
        candidates between levels; it must return the same counts and a
        descriptor with the same fields.
        """
        y = self.initial()
        counts: list[int] = []
        for _ in range(self.max_depth()):
            moves = self.child_moves(y)
            counts.append(len(moves))
            if not moves:
                break
            _, move = min(moves)
            y = self.apply_move(y, move)
        return counts, y

    @abstractmethod
    def extract(self, y: Any) -> Optional[Solution]:
        """The complete candidate solution ``y`` denotes, if any."""

    @abstractmethod
    def max_depth(self) -> int:
        """Upper bound on split depth, and the engine's only depth bound."""

    # -- specification of correct outputs ----------------------------------

    @abstractmethod
    def feasible(self, z: Solution) -> bool:
        """Whether ``z`` is a correct output for the bound problem input."""

    @abstractmethod
    def cost(self, z: Solution) -> int:
        """Cost of a feasible solution."""

    @abstractmethod
    def partial_cost(self, y: Any) -> int:
        """Cost of the partial solution ``y`` under the same cost form.

        Compositional with splitting: for every child move ``(inc, m)`` of
        ``y``, ``partial_cost(apply_move(y, m)) == partial_cost(y) + inc``.
        """

    # -- dominance ----------------------------------------------------------

    def semi_congruent(self, y: Any, other: Any) -> bool:
        """Sufficient condition for extension transfer.

        When true, every sequence of split moves that completes ``other``
        into a feasible solution can be replayed on ``y`` and completes it
        too.  May be called on any two descriptors the search reaches,
        whether of one level or not (or on whatever narrower scope the
        concrete theory documents).  Default: canonical equality.
        """
        return y.serial == other.serial

    def dominates(self, y: Any, other: Any) -> bool:
        """Pruning preorder: ``other`` may be dropped when ``y`` dominates it.

        The paper's dominance relation, and the specification of
        ``equivalence_key``: the engine never calls it, but prunes by the
        key, which must state it exactly.  Within one level ``other`` is
        dropped when ``y`` dominates it; across levels, when an
        earlier-level survivor ``y`` dominates it and ``other`` does not
        dominate ``y`` back, so cross-level ties are kept.  Default
        implementation: semi-congruent and at least as cheap (flipped under
        maximization).  Problems may override with a stronger derived
        relation.
        """
        if not self.semi_congruent(y, other):
            return False
        return self.direction.at_least_as_good(
            self.partial_cost(y), self.partial_cost(other)
        )

    # Unread by the engine; ``perfbench/tracer.py``'s ``TracedTheory`` gets it by name.
    def dominance_key(self, y: Any) -> Hashable:
        """Sound partition key: ``dominates(y, y')`` implies equal keys.

        Read only by the tests' pairwise reference solver, which restricts
        its ``dominates`` tests to same-key groups.  Default: a single
        group.
        """
        return None

    @abstractmethod
    def equivalence_key(self, y: Any) -> tuple:
        """The engine's only view of dominance: ``(group, a, b)`` for ``y``.

        For any two descriptors the search reaches, ``dominates(y, o)``
        holds exactly when both have the same group, ``a(y) <= a(o)`` and
        ``b(y) <= b(o)``: dominance is a 2-D order with both coordinates
        minimised, so negate one to maximise it.  Equal keys are then exactly
        mutual dominance.  Keys must be hashable and mutually orderable, and
        a group that recurs across levels must keep one ``a``.  The engine
        calls it once per child, merges equal keys, drops a member whose
        ``b`` is strictly above the lowest ``b`` its group kept at an earlier
        level, and filters the rest with one sort and sweep per level.
        """


def _serials_equal(y: Any, other: Any) -> bool:
    return y.serial == other.serial


def _serial_key(y: Any) -> tuple:
    # Each serial is its own group, so equal keys are exactly duplicates:
    # the keyed stages run in linear time, count every tie as a duplicate,
    # and merge and prune nothing.
    return (y.serial, 0, 0)


def IdentityDominance(base: ProblemTheory) -> ProblemTheory:
    """A copy of ``base`` with its dominance disabled (kept reflexive only).

    Returns ``copy.copy(base)`` with ``strictly_ranked`` off, ``dominates``
    true for equal serials only and an ``equivalence_key`` that puts each
    serial in a group of its own.  Every other hook and attribute, ``split``
    and instance-level overrides included, is the base's own, so a base
    theory's move bound (knapsack's and spsp's, stated in their ``split``)
    still applies.

    Used to measure how much work dominance pruning does: the engine
    degenerates to plain duplicate-free breadth-first enumeration of the
    moves the base generates, which must still reach the same optimal cost.
    """
    copied = copy.copy(base)
    copied.strictly_ranked = False
    copied.dominates = _serials_equal
    copied.equivalence_key = _serial_key
    return copied
