"""Outside-in tracer for the benchmark's traced run.

It records where ``frontier_search.engine.solve`` spends its time without
editing the library.  It has two pieces, both installed by the benchmark in
its own process only:

* ``TracedTheory`` is a delegating ``ProblemTheory`` proxy.  It counts and
  times each hook call of the wrapped theory.
* ``Tracer.patched_engine`` swaps the public pipeline-stage functions in the
  ``frontier_search.engine`` namespace for timing wrappers.  ``solve`` looks
  them up there at call time, so it runs through the wrappers.

Hooks run hundreds of thousands of times per solve, so each hook is kept as a
call count plus summed nanoseconds, never as one span per call.  Solve and
stage calls are kept as spans in memory (solve id, span id, parent span id,
name, start, end) and written out at the end.  The self time of a span is its
duration minus the time covered by its child spans and by the hook calls made
inside it.

Timing a hook call costs time of its own, comparable to a cheap hook's.
Before each traced solve ``Tracer.calibrate`` measures it on a no-op hook,
split into the part inside the hook's timer and the part outside it (the
machine's speed drifts, so one measurement per process is not enough).  The
totals have it taken out: each hook's time loses calls x inside, each span's
time loses calls x both for the hook calls within it, and each span's self
time loses calls x outside for the hook calls made directly in it.  The
spans written out keep their raw times.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Iterator

from frontier_search import engine
from frontier_search.theory import ProblemTheory

#: Hooks that ``TracedTheory`` times, in report order.
HOOKS = (
    "child_moves",
    "apply_move",
    "dominates",
    "dominance_key",
    "equivalence_key",
    "extract",
    "feasible",
    "cost",
)

#: Stage functions of ``frontier_search.engine`` that the tracer wraps, each
#: with the counters it reads off the stage's arguments and return value.
STAGES = {
    "expand": ((), lambda args, out: {}),
    "dedupe": (("removed",), lambda args, out: {"removed": out[1]}),
    "reduce_equivalent": (("merged",), lambda args, out: {"merged": out[1]}),
    "filter_dominated": (("in", "pruned"),
                         lambda args, out: {"in": len(args[1]), "pruned": out[1]}),
    "collect_locals": (("found",), lambda args, out: {"found": len(out)}),
}


#: Size of ``Tracer.calibrate``'s measurement, taken before every traced
#: solve: about 30 ms in all on a 2-vCPU Xeon VM.
CALIBRATION_CALLS = 2000
CALIBRATION_ROUNDS = 3


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "hooks_at_start",
                 "calls_at_start", "child_ns", "child_hook_ns", "child_outside_ns")


class SpanTotals:
    """Aggregate of every span with one name, tracer overhead taken out."""

    __slots__ = ("calls", "ns", "self_ns", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.counts: Counter = Counter()


class Tracer:
    """Spans and hook tallies of one traced process."""

    def __init__(self) -> None:
        #: name -> [calls, ns, extra]; ``extra`` is the number of True results
        #: for ``dominates`` and the number of moves returned for
        #: ``child_moves``.
        self.hooks: dict[str, list[int]] = {name: [0, 0, 0] for name in HOOKS}
        #: Total nanoseconds spent in hooks so far; spans read its growth.
        self.hook_ns = 0
        #: name -> (inside, outside): nanoseconds that timing one call of the
        #: hook adds inside and outside its timer; zero until ``calibrate``.
        self.overhead: dict[str, tuple[float, float]] = {
            name: (0.0, 0.0) for name in HOOKS}
        #: name -> nanoseconds of the hook's tally that are overhead.
        self.hook_overhead_ns: dict[str, float] = {name: 0.0 for name in HOOKS}
        self._tallies = [self.hooks[name] for name in HOOKS]
        self._per_call = [0.0] * len(HOOKS)
        self._outside = [0.0] * len(HOOKS)
        self.totals: dict[str, SpanTotals] = {}
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.solve_id = -1
        self._stack: list[_Frame] = []
        self._next_id = 0

    def open(self, name: str) -> _Frame:
        frame = _Frame()
        frame.name = name
        frame.span_id = self._next_id
        self._next_id += 1
        frame.parent_id = self._stack[-1].span_id if self._stack else -1
        frame.hooks_at_start = self.hook_ns
        frame.calls_at_start = [tally[0] for tally in self._tallies]
        frame.child_ns = frame.child_hook_ns = frame.child_outside_ns = 0
        self._stack.append(frame)
        frame.start = perf_counter_ns()
        return frame

    def close(self, frame: _Frame, counts: dict[str, int] | None = None) -> None:
        """End the innermost span."""
        end = perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        dur = end - frame.start
        hooks_inside = self.hook_ns - frame.hooks_at_start
        calls = [tally[0] - n for tally, n in zip(self._tallies, frame.calls_at_start)]
        overhead = sum(c * ns for c, ns in zip(calls, self._per_call))
        outside = sum(c * ns for c, ns in zip(calls, self._outside))
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += dur
            parent.child_hook_ns += hooks_inside
            parent.child_outside_ns += outside
        totals = self.totals.get(frame.name)
        if totals is None:
            totals = self.totals[frame.name] = SpanTotals()
        totals.calls += 1
        totals.ns += dur - overhead
        totals.self_ns += (dur - frame.child_ns - (hooks_inside - frame.child_hook_ns)
                           - (outside - frame.child_outside_ns))
        if counts:
            totals.counts.update(counts)
        self.spans.append(
            (self.solve_id, frame.span_id, frame.parent_id, frame.name, frame.start, end)
        )

    def hook_s(self, name: str) -> float:
        """Seconds in the ``name`` hook, tracer overhead taken out."""
        return max(0.0, self.hooks[name][1] - self.hook_overhead_ns[name]) / 1e9

    def calibrate(self) -> None:
        """Measure what ``TracedTheory`` adds to one call of each hook.

        A proxy around a no-op function is called CALIBRATION_CALLS times, and
        so are the function itself and an empty loop; each figure is the
        median of CALIBRATION_ROUNDS such rounds.
        """
        calls = CALIBRATION_CALLS
        noop = _Noop().hook

        def loop_ns(fn) -> int:
            start = perf_counter_ns()
            if fn is None:
                for _ in range(calls):
                    pass
            else:
                for _ in range(calls):
                    fn(None, None)
            return perf_counter_ns() - start

        for i, name in enumerate(HOOKS):
            tally = [0, 0, 0]
            probe = TracedTheory.__new__(TracedTheory)
            probe._tracer, probe._hooks = Tracer(), {name: (noop, tally)}
            hook = getattr(probe, name)
            inside, outside = [], []
            for _ in range(CALIBRATION_ROUNDS):
                tally[1] = 0
                empty, direct, proxied = loop_ns(None), loop_ns(noop), loop_ns(hook)
                inside.append((tally[1] - (direct - empty)) / calls)
                outside.append((proxied - direct) / calls - inside[-1])
            pair = (max(0.0, statistics.median(inside)), max(0.0, statistics.median(outside)))
            self.overhead[name] = pair
            self._per_call[i], self._outside[i] = sum(pair), pair[1]

    def traced_solve(self, theory: ProblemTheory, config: engine.EngineConfig):
        """``engine.solve`` on a proxied theory, inside one ``engine.solve`` span."""
        self.solve_id += 1
        self.calibrate()
        calls = [tally[0] for tally in self._tallies]
        proxy = TracedTheory(theory, self)
        frame = self.open("engine.solve")
        try:
            return engine.solve(proxy, config)
        finally:
            self.close(frame)
            for name, tally, before in zip(HOOKS, self._tallies, calls):
                self.hook_overhead_ns[name] += (tally[0] - before) * self.overhead[name][0]

    @contextmanager
    def patched_engine(self) -> Iterator[None]:
        """Route ``solve``'s stage calls through timing wrappers while inside."""
        originals = {name: getattr(engine, name) for name in STAGES}
        try:
            for name, (_, count) in STAGES.items():
                setattr(engine, name, self._wrap_stage(name, originals[name], count))
            yield
        finally:
            for name, fn in originals.items():
                setattr(engine, name, fn)

    def _wrap_stage(self, name: str, fn, count):
        span_name = f"engine.{name}"

        def stage(*args, **kwargs):
            frame = self.open(span_name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(frame, count(args, out) if out is not None else None)

        return stage

    def write_spans(self, path) -> None:
        """Write every span, then one line per hook tally, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for solve_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "solve": solve_id, "id": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
            for name, (calls, ns, extra) in self.hooks.items():
                fh.write(json.dumps({
                    "hook": f"theory.{name}", "calls": calls, "ns": ns, "extra": extra,
                }) + "\n")


class _Noop:
    """Holds a no-op hook, bound like a theory's hooks are."""

    def hook(self, a, b):
        return ()


def _timed_hook(name: str, extra=None):
    """A proxy method that times the wrapped theory's ``name`` hook."""

    def hook(self: "TracedTheory", *args):
        fn, tally = self._hooks[name]
        start = perf_counter_ns()
        out = fn(*args)
        dt = perf_counter_ns() - start
        tally[0] += 1
        tally[1] += dt
        if extra is not None:
            tally[2] += extra(out)
        self._tracer.hook_ns += dt
        return out

    hook.__name__ = name
    return hook


class TracedTheory(ProblemTheory):
    """Delegating proxy that counts and times the wrapped theory's hooks.

    It keeps the wrapped theory's ``direction``, ``strictly_ranked`` flag and
    whether it has an ``equivalence_key``, so ``solve`` takes the same code
    path.  ``split`` is the interface default, which goes through this
    proxy's own ``child_moves``/``apply_move``, so each hook is counted once.
    """

    def __init__(self, base: ProblemTheory, tracer: Tracer):
        self.base = base
        self._tracer = tracer
        self.direction = base.direction
        self.strictly_ranked = base.strictly_ranked
        self._hooks: dict[str, tuple[Any, list[int]]] = {}
        for name in HOOKS:
            fn = getattr(base, name)
            if fn is not None:
                self._hooks[name] = (fn, tracer.hooks[name])
        if base.equivalence_key is None:
            self.equivalence_key = None

    child_moves = _timed_hook("child_moves", extra=len)
    apply_move = _timed_hook("apply_move")
    dominates = _timed_hook("dominates", extra=bool)
    dominance_key = _timed_hook("dominance_key")
    equivalence_key = _timed_hook("equivalence_key")
    extract = _timed_hook("extract")
    feasible = _timed_hook("feasible")
    cost = _timed_hook("cost")

    def initial(self):
        return self.base.initial()

    def max_depth(self):
        return self.base.max_depth()

    def partial_cost(self, y):
        return self.base.partial_cost(y)

    def semi_congruent(self, y, other):
        return self.base.semi_congruent(y, other)
