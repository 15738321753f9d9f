"""The reference workload that the benchmark's time metrics are scaled by.

Shared virtual machines change speed: on a 2-vCPU Intel Xeon VM running
CPython 3.11, identical solves drifted by up to 1.6x over minutes, and the
machine switched between a fast and a slow state every few seconds, which
moves raw wall times further between runs than any useful regression bound.
A fixed pure-Python workload, independent of ``frontier_search``, is
therefore timed before the first solve and after every solve, and each solve
is reported at the speed of a reference machine: multiplied by
``NOMINAL_NS`` over the mean of the reference timings just before and just
after it.

The workload mixes the three kinds of work the engine and the oracles do: an
integer DP loop, a heap-and-dict shortest-path search, and building many
large frozensets (memory churn).  It is timed with the garbage collector off,
best of ``REPEATS`` calls, so that a collection of the heap a solve left
behind does not count as a slow machine.  Scaling each solve by the timings
around it follows the machine's switches, and one factor per run does not:
on that VM, over five seeds, the spread (quartile distance over median) of a
run's median solve time was 0.04 against 0.18 on tree-greedy and 0.05
against 0.12 on spsp-exhaustive.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter_ns

#: What ``reference_work`` takes on the reference machine.
NOMINAL_NS = 7_000_000
#: Calls per timing; the fastest counts.
REPEATS = 3

_rng = random.Random(12345)
_ITEMS = [(_rng.randint(1, 60), _rng.randint(1, 100)) for _ in range(24)]
_CAPACITY = 300
_EDGES = [(_rng.randrange(300), _rng.randrange(300), _rng.randint(1, 100))
          for _ in range(1500)]
_BASE = frozenset(range(80))


def reference_work() -> int:
    best = [0] * (_CAPACITY + 1)
    for w, u in _ITEMS:
        for c in range(_CAPACITY, w - 1, -1):
            v = best[c - w] + u
            if v > best[c]:
                best[c] = v

    adj: dict[int, list[tuple[int, int]]] = {}
    for a, b, w in _EDGES:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    dist: dict[int, int] = {}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in adj.get(u, ()):
            if v not in dist:
                heapq.heappush(heap, (d + w, v))

    sets = [_BASE | {1000 + i} for i in range(1500)]
    return best[_CAPACITY] + len(dist) + len(sets)


def time_reference() -> int:
    """Nanoseconds ``reference_work`` takes now: the fastest of REPEATS calls."""
    timings = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = perf_counter_ns()
            reference_work()
            timings.append(perf_counter_ns() - start)
    finally:
        gc.enable()
    return min(timings)
