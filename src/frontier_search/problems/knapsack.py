"""0-1 knapsack: maximize utility within a weight capacity.

Partial solutions decide items in index order, so a descriptor is a prefix
of in/out bits, stored as an immutable tuple with its weight, utility and
level (the prefix length).  Prefixes that decided the same items compare by
weight and utility: lighter-and-at-least-as-useful dominates, which is
exactly the default semi-congruence-plus-cost rule under maximization.  The
undominated frontier is the strict Pareto front over (weight, utility), at
most one entry per distinct reachable weight, so at most ``capacity + 1``
survivors per level.  ``split`` builds both children of a prefix in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..theory import Direction, ProblemTheory


@dataclass(frozen=True)
class KnapsackInstance:
    capacity: int
    items: tuple[tuple[int, int], ...]  # (weight, utility)

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        for i, (w, u) in enumerate(self.items):
            if w < 0 or u < 0:
                raise ValueError(f"item {i}: negative weight or utility")

    @property
    def n(self) -> int:
        return len(self.items)


class KnapsackDescriptor(NamedTuple):
    """Decisions for the first ``level`` items, one bit per item."""

    serial: tuple[int, ...]  # 0 = out, 1 = in
    weight: int
    utility: int
    level: int  # len(serial)


class Knapsack(ProblemTheory):

    direction = Direction.MAXIMIZE
    strictly_ranked = False

    def __init__(self, instance: KnapsackInstance):
        self.instance = instance
        # Plain attributes: the search reads them for every descriptor.
        self.items = instance.items
        self.n = len(instance.items)
        self.capacity = instance.capacity

    def initial(self) -> KnapsackDescriptor:
        return KnapsackDescriptor((), 0, 0, 0)

    def child_moves(self, y: KnapsackDescriptor) -> list[tuple[int, int]]:
        k = y.level
        if k == self.n:
            return []
        w, u = self.items[k]
        if y.weight + w <= self.capacity:
            return [(0, 0), (u, 1)]
        return [(0, 0)]

    def apply_move(self, y: KnapsackDescriptor, move: int) -> KnapsackDescriptor:
        serial, weight, utility, k = y
        if move:
            w, u = self.items[k]
            return KnapsackDescriptor(serial + (1,), weight + w, utility + u, k + 1)
        return KnapsackDescriptor(serial + (0,), weight, utility, k + 1)

    def split(self, y: KnapsackDescriptor) -> list[KnapsackDescriptor]:
        # ``apply_move`` over ``child_moves``, with the parent unpacked once.
        serial, weight, utility, k = y
        if k == self.n:
            return []
        out = tuple.__new__(KnapsackDescriptor, (serial + (0,), weight, utility, k + 1))
        w, u = self.items[k]
        if weight + w > self.capacity:
            return [out]
        return [
            out,
            tuple.__new__(
                KnapsackDescriptor, (serial + (1,), weight + w, utility + u, k + 1)
            ),
        ]

    def extract(self, y: KnapsackDescriptor) -> Optional[frozenset[int]]:
        if y.level != self.n:
            return None
        return frozenset(i for i, bit in enumerate(y.serial) if bit)

    def max_depth(self) -> int:
        return self.n

    def feasible(self, z: frozenset[int]) -> bool:
        if any(not 0 <= i < self.n for i in z):
            return False
        return sum(self.items[i][0] for i in z) <= self.capacity

    def cost(self, z: frozenset[int]) -> int:
        return sum(self.items[i][1] for i in z)

    def partial_cost(self, y: KnapsackDescriptor) -> int:
        return y.utility

    def semi_congruent(self, y: KnapsackDescriptor, other: KnapsackDescriptor) -> bool:
        # Same decided prefix length and no heavier: whatever still fits on
        # top of ``other`` fits on top of ``y``.
        return y.level == other.level and y.weight <= other.weight

    # dominates: inherited default (semi-congruent and utility at least as high)

    def dominance_key(self, y: KnapsackDescriptor) -> int:
        return y.level

    def equivalence_key(self, y: KnapsackDescriptor) -> tuple[int, int, int]:
        # Lighter and at least as useful, with utility negated to minimise;
        # equal keys (equal weight and utility) are mutual dominance.
        return (y.level, y.weight, -y.utility)
