"""0-1 knapsack: maximize utility within a weight capacity.

Partial solutions decide items in ratio order (falling utility/weight, see
``_ratio_order``), so a descriptor is a prefix of in/out bits over that
order, stored as an immutable tuple with its weight and utility; its level
is the prefix length, bit k decides item ``_ratio_order[k]``, and
``extract`` maps the bits back to item indices.  Prefixes that decided the
same items compare by weight and utility: lighter-and-at-least-as-useful
dominates, which is exactly the default semi-congruence-plus-cost rule
under maximization.  The undominated frontier is the strict Pareto front
over (weight, utility), at most one entry per distinct reachable weight, so
at most ``capacity + 1`` survivors per level.  ``split`` builds both
children of a prefix in one call and is the one statement of the moves:
``child_moves`` reads them off its children.

``split`` also prunes by bound (Dantzig 1957; Martello and Toth
1990, ch. 2) against an incumbent, a feasible solution's utility that the
theory derives from the instance alone before the search starts.  The
greedy fill in ratio order takes each item that still fits.  Its break item
b is the first whose item does not fit after all the items before it.  The
incumbent is the best of the greedy fill and the forced fills at the
``FORCED_FILLS`` positions p on either side of b: for p < b the greedy fill
with item p skipped, and for p >= b item p taken first and the rest filled
greedily.  Turning item p's greedy decision round costs the relaxation at
least p's gap to b's ratio, so a fill that this cannot lift above the best
so far is not run, and a fill stops once what is left, headed by an item
that does not fit, cannot lift it.  When the best reaches the root's
floored Dantzig bound, it is optimal and the search for better stops; when
the greedy fill already reaches it, no forced fill runs.  A move is kept only
when the child's utility plus the floored Dantzig bound (the fractional
relaxation over the undecided items, within the remaining capacity) reaches
the incumbent; ties are kept.  Along a path that bound never rises, a
dominator's bound is at least the bound of what it dominates, and equal keys
have equal bounds, so each level keeps exactly the unbounded search's
survivors that the bound admits, and every optimum among them.  Because the
levels decide items in the order the greedy fill and the bound take them,
the undecided items are a suffix of that order, and the bound's fill is a
run of it up to a break item: the first that no longer fits whole.
Prefix sums of the order's weights and utilities, built once per theory,
find that item by bisection and the run's utility by one subtraction.
Only the out-child is tested.  Taking item k whole is the first step of its
parent's own fill from level k, so the in-child's bound is its parent's:
it reaches whenever the parent's does, and ``split`` keeps it whenever it
fits.  That rule relies on the parent's bound reaching, which holds for
every member derived from ``initial()``, as ``solve`` and
``oracles.brute_force`` derive theirs: the root reaches, as the incumbent
is a feasible utility and so at most the floored bound, and every other
member passed its parent's test or inherited its bound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import accumulate, islice
from typing import NamedTuple, Optional

from ..theory import Direction, ProblemTheory

#: The forced fills try the ``FORCED_FILLS`` positions on either side of the
#: break item.  On the 300 30-item instances of the knapsack-exhaustive
#: benchmark at seed 1, the incumbent is the optimum on 149 with none, 198
#: with one, 250 with four and 266 with eight, which cost more per theory.
FORCED_FILLS = 4


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
    """Decisions for the first ``len(serial)`` items of the decision order,
    one bit per item."""

    serial: tuple[int, ...]  # 0 = out, 1 = in
    weight: int
    utility: int


class Knapsack(ProblemTheory):

    direction = Direction.MAXIMIZE
    strictly_ranked = False

    def __init__(self, instance: KnapsackInstance):
        self.instance = instance
        # Plain attributes: the search reads ``n`` and ``capacity`` for every
        # descriptor.
        self.items = instance.items
        self.n = len(instance.items)
        self.capacity = instance.capacity

    def initial(self) -> KnapsackDescriptor:
        return KnapsackDescriptor((), 0, 0)

    @cached_property
    def _ratio_order(self) -> tuple[int, ...]:
        """Item indices by falling utility/weight.

        Zero-weight items come first; the rest compare by cross-multiplied
        ratios, so no float rounds, and ties keep index order.  Built on
        first use, once per theory, and stored as bare indices to stay small.
        """
        items = self.items

        def falling_ratio(a: int, b: int) -> int:
            (wa, ua), (wb, ub) = items[a], items[b]
            return ub * wa - ua * wb

        weighted = [i for i, (w, _) in enumerate(items) if w]
        weighted.sort(key=cmp_to_key(falling_ratio))
        return tuple([i for i, (w, _) in enumerate(items) if not w] + weighted)

    @cached_property
    def decided(self) -> tuple[tuple[int, int], ...]:
        """The ``(weight, utility)`` pairs in the order the levels decide
        them: level k decides ``decided[k]``, item ``_ratio_order[k]``."""
        items = self.items
        return tuple([items[i] for i in self._ratio_order])

    @cached_property
    def greedy_fill(self) -> int:
        """Utility of the greedy fill: each item in ratio order that still fits."""
        return self._fill(((0, self.n),), self.capacity, 0)

    @cached_property
    def incumbent(self) -> int:
        """The best of the greedy fill and the forced fills around the break
        item, a feasible solution's utility (see the module docstring)."""
        best, capacity, n = self.greedy_fill, self.capacity, self.n
        weights, utilities = self._sums
        b = bisect_right(weights, capacity) - 1
        if b == n:
            return best
        wb, ub = self.decided[b]
        # The root's Dantzig bound, times ``wb`` to stay in integers.
        bound = utilities[b] * wb + ub * (capacity - weights[b])
        for p in range(max(0, b - FORCED_FILLS), min(n, b + FORCED_FILLS)):
            if best == bound // wb:
                break
            w, u = self.decided[p]
            # Turning item p's greedy decision round costs the bound at least
            # p's gap to the break item's ratio.
            if (bound - abs(u * wb - ub * w)) // wb <= best:
                continue
            if p < b:
                # Every item before the break item but p, then the rest.
                room, total = capacity + w - weights[b], utilities[b] - u
                runs = ((b, n),)
            elif w <= capacity:
                # Item p, then every other item in order.
                room, total = capacity - w, u
                runs = ((0, p), (p + 1, n))
            else:
                continue
            best = max(best, self._fill(runs, room, total, best))
        return best

    def _fill(
        self, runs: tuple[tuple[int, int], ...], room: int, total: int, beat: int = -1
    ) -> int:
        """``total`` plus the utility of the greedy fill within ``room`` of
        the pairs ``decided[start:stop]`` for each ``(start, stop)`` of
        ``runs`` in turn, or a lower feasible utility once the fill cannot
        end above ``beat``.

        The pairs up to the first that does not fit are one bisection; the
        rest are a scan.  A pair that does not fit heads all that is left in
        ratio order, so the fill gains at most its fitting fraction.
        """
        weights, utilities = self._sums
        for start, stop in runs:
            j = bisect_right(weights, weights[start] + room, start, stop + 1) - 1
            total += utilities[j] - utilities[start]
            room -= weights[j] - weights[start]
            for w, u in islice(self.decided, j, stop):
                if w <= room:
                    room -= w
                    total += u
                elif total + u * room // w <= beat:
                    return total
        return total

    @cached_property
    def _sums(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Prefix sums of ``decided``: the weight and the utility of its
        first j pairs at index j, from 0 at index 0 to the totals at n."""
        return (
            tuple(accumulate((w for w, _ in self.decided), initial=0)),
            tuple(accumulate((u for _, u in self.decided), initial=0)),
        )

    def _reaches(self, level: int, room: int, utility: int) -> bool:
        """Whether ``utility`` plus the floored Dantzig bound over the items
        still undecided at ``level`` (``decided[level:]``) within ``room`` is
        at least the incumbent."""
        need = self.incumbent - utility
        if need <= 0:
            return True
        weights, utilities = self._sums
        # ``decided[level:j]`` fit whole within ``room``; item j, if any, is
        # the break item, and it is not weightless, as it does not fit.
        top = weights[level] + room
        j = bisect_right(weights, top, level) - 1
        total = utilities[j] - utilities[level]
        if j == self.n:
            return total >= need
        w, u = self.decided[j]
        return total + u * (top - weights[j]) // w >= need

    def child_moves(self, y: KnapsackDescriptor) -> list[tuple[int, int]]:
        # The moves ``split`` keeps, read off its children.
        return [(c.utility - y.utility, c.serial[-1]) for c in self.split(y)]

    def apply_move(self, y: KnapsackDescriptor, move: int) -> KnapsackDescriptor:
        serial, weight, utility = y
        if move:
            w, u = self.decided[len(serial)]
            return KnapsackDescriptor(serial + (1,), weight + w, utility + u)
        return KnapsackDescriptor(serial + (0,), weight, utility)

    def split(self, y: KnapsackDescriptor) -> list[KnapsackDescriptor]:
        # Out before in.  The out-child is kept only if it can reach the
        # incumbent; the in-child whenever it fits, as its bound is ``y``'s
        # (see the module docstring).
        serial, weight, utility = y
        k = len(serial)
        if k == self.n:
            return []
        w, u = self.decided[k]
        room = self.capacity - weight
        children = []
        if self._reaches(k + 1, room, utility):
            children.append(
                tuple.__new__(KnapsackDescriptor, (serial + (0,), weight, utility))
            )
        if w <= room:
            children.append(
                tuple.__new__(
                    KnapsackDescriptor, (serial + (1,), weight + w, utility + u)
                )
            )
        return children

    def extract(self, y: KnapsackDescriptor) -> Optional[frozenset[int]]:
        if len(y.serial) != self.n:
            return None
        order = self._ratio_order
        return frozenset(order[k] for k, bit in enumerate(y.serial) if bit)

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
        # Same decided prefix length, no heavier and at least as useful:
        # whatever still fits on top of ``other`` fits on top of ``y``, and
        # each move the bound lets ``other`` take, it lets ``y`` take too.
        return (
            len(y.serial) == len(other.serial)
            and y.weight <= other.weight
            and y.utility >= other.utility
        )

    # dominates: inherited default (semi-congruent and utility at least as
    # high, which the utility test in semi_congruent already implies)

    def dominance_key(self, y: KnapsackDescriptor) -> int:
        return len(y.serial)

    def equivalence_key(self, y: KnapsackDescriptor) -> tuple[int, int, int]:
        # Lighter and at least as useful, with utility negated to minimise;
        # equal keys (equal weight and utility) are mutual dominance.
        return (len(y.serial), y.weight, -y.utility)
