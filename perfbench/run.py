"""Benchmark of ``frontier_search.engine.solve`` on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload knapsack-exhaustive --seed 1 --seconds 36 --trace 0

One single-threaded, closed-loop process sets up the workload's instances
(timed as ``setup_s``) and then solves them one after another, each solve
starting when the previous one returns.  Every solve is checked against the
classical oracle in ``frontier_search.oracles``, against the stats accounting
identity and against the first solve of the same instance; a failed check is
counted, never skipped.

``--trace 0`` measures for ``--seconds``: it cycles through the instances,
always finishing the workload's core cases, and reports the end-to-end
metrics.  Each solve's time is scaled to a reference machine's speed by
the reference workload in ``reference.py``, timed just before and just after
it; the solves' wall times are printed beside them as ``*.wall`` lines, with
the run's median factor as ``speed_scale``.  Set-up is scaled the same way.
``--trace 1`` solves each core case untraced and then traced, in whole passes
while time remains, and reports the per-layer metrics of one pass; its spans
go to ``perfbench/out/``.  Both modes print every metric as a
``name value unit`` line, and as the last line one JSON object with the
metrics of the mode.  ``perfbench/selftest.py`` checks the whole contract at
a tiny size.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Optional

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: The oracle is called repeatedly, at least ORACLE_MIN_REPS times and until
#: the calls cover ORACLE_MIN_NS (at most ORACLE_MAX_REPS calls), and its time
#: is the median call: one call right after a solve takes a few milliseconds
#: and swings with the heap and cache state the solve left behind, and now
#: and then a full garbage collection of the solve's heap lands in one call
#: and takes longer than ORACLE_MIN_NS on its own.
ORACLE_MIN_REPS = 3
ORACLE_MIN_NS = 10_000_000
ORACLE_MAX_REPS = 50

#: ``solve_ms.tail`` is the slowest solve that has this many slower solves
#: above it: the highest percentile with enough samples beyond it.  A run of
#: fewer solves reports its slowest.
TAIL_ABOVE = 10

END_TO_END_UNITS = {
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "solves_per_s": "1/s",
    "ref_ratio": "ratio",
    "failed_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Printed as lines only: a run that reports it above 0 is not correct, so it
#: is no metric a bound could apply to.
NOT_IN_RESULT = ("failed_frac",)

WORK_COUNTERS = ("levels", "generated", "duplicates_removed", "equivalence_merged",
                 "dominated_pruned", "locals_found")


def _load_library() -> None:
    """Import ``frontier_search`` from this checkout's ``src`` or exit."""
    src = ROOT / "src"
    if not (src / "frontier_search" / "__init__.py").is_file():
        sys.exit(f"error: no frontier_search package under {src}")
    sys.path.insert(0, str(src))
    import frontier_search

    if Path(frontier_search.__file__).resolve().parent != src / "frontier_search":
        sys.exit(f"error: frontier_search imported from {frontier_search.__file__}")


# ---------------------------------------------------------------------------
# one checked solve
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    solve_ns: int
    oracle_ns: int
    oracle_calls: int
    #: Oracle cost, or None when the oracle raised.
    expected: Optional[int]
    #: Fingerprint record: optimal cost, canonical witness, number of optima
    #: and every SearchStats field; None when solve raised.
    record: Optional[tuple]
    stats: Any
    failure: Optional[str]


def _record(result) -> tuple:
    witness = None
    if result.optima:
        witness = min(
            tuple(sorted(z)) if isinstance(z, frozenset) else tuple(z)
            for z in result.optima
        )
    return (result.optimal_cost, witness, len(result.optima),
            dataclasses.astuple(result.stats))


def _check(result, expected, first: Optional[tuple]) -> Optional[str]:
    if result.optimal_cost != expected:
        return f"optimal cost {result.optimal_cost} != oracle {expected}"
    if not result.stats.accounting_identity_holds():
        return "stats accounting identity broken"
    if first is not None and _record(result) != first:
        return "result differs from the first solve of this instance"
    return None


def solve_checked(case, solve: Callable, first: Optional[tuple] = None,
                  expected: Optional[int] = None) -> Outcome:
    """Time ``solve(theory, config)`` on one case and check its result.

    ``first`` is the record of this case's first solve; ``expected`` is its
    oracle cost when known, else the oracle runs and is timed.  An error in the
    solve or the oracle is an outcome here: the run counts it and goes on.
    """
    failure = result = None
    start = perf_counter_ns()
    try:
        result = solve(case.theory, case.config)
    except Exception as exc:  # counted into failed_frac
        failure = f"solve raised {type(exc).__name__}: {exc}"
    solve_ns = perf_counter_ns() - start
    oracle_ns = 0
    calls: list[int] = []
    if expected is None:
        try:
            while len(calls) < ORACLE_MIN_REPS or (
                    sum(calls) < ORACLE_MIN_NS and len(calls) < ORACLE_MAX_REPS):
                start = perf_counter_ns()
                expected = case.oracle()
                calls.append(perf_counter_ns() - start)
        except Exception as exc:  # counted into failed_frac
            failure = failure or f"oracle raised {type(exc).__name__}: {exc}"
            calls.append(perf_counter_ns() - start)
        oracle_ns = int(statistics.median(calls))
    record = stats = None
    if result is not None:
        record, stats = _record(result), result.stats
        failure = failure or _check(result, expected, first)
    return Outcome(solve_ns, oracle_ns, len(calls), expected, record, stats, failure)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Ledger:
    """Every solve of a run, the checks that failed and the core cases' results."""

    def __init__(self, n_core: int):
        self.solve_ns: list[int] = []
        #: Reference-workload timings, one before the first solve and one
        #: after each solve; empty for traced solves.
        self.ref_ns: list[int] = []
        self.oracle_ns = 0
        self.oracle_calls = 0
        self.failures: list[str] = []
        self.core: list[Optional[Outcome]] = [None] * n_core

    def add(self, label: str, out: Outcome) -> None:
        self.solve_ns.append(out.solve_ns)
        self.oracle_ns += out.oracle_ns
        self.oracle_calls += out.oracle_calls
        if out.failure:
            self.failures.append(f"{label}: {out.failure}")

    def first(self, k: Optional[int]) -> Optional[tuple]:
        """Record of core case ``k``'s first solve, if any."""
        if k is None or self.core[k] is None:
            return None
        return self.core[k].record

    def records(self) -> list[Optional[tuple]]:
        return [out.record if out else None for out in self.core]

    def speed_scale(self) -> float:
        """Median factor from this run's wall times to the reference machine's."""
        return reference.NOMINAL_NS / statistics.median(self.ref_ns)

    def end_to_end(self, scaled: bool) -> tuple[dict[str, tuple[float, str]], str]:
        """End-to-end metrics of the solves, and which percentile the tail is.

        With ``scaled``, each solve's time is multiplied by ``NOMINAL_NS``
        over the mean of the reference timings just before and after it.
        """
        ms = [ns / 1e6 for ns in self.solve_ns]
        if scaled:
            ref = self.ref_ns
            ms = [t * 2 * reference.NOMINAL_NS / (ref[i] + ref[i + 1])
                  for i, t in enumerate(ms)]
        ms.sort()
        n = len(ms)
        total_s = sum(ms) / 1e3
        rank = n - 1 - TAIL_ABOVE if n > TAIL_ABOVE else n - 1
        note = (f"p{100 * (rank + 1) / n:.1f}, "
                f"{n - 1 - rank} of {n} solves above")
        values = {
            "solve_ms.p50": statistics.median(ms),
            "solve_ms.tail": ms[rank],
            "solves_per_s": n / total_s if total_s else 0.0,
            "ref_ratio": sum(self.solve_ns) / self.oracle_ns if self.oracle_ns else 0.0,
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def fingerprint(records: list[Optional[tuple]]) -> str:
    """Digest of the core cases' optima, witnesses and SearchStats."""
    blob = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def work_counters(stats: list[Any]) -> dict[str, tuple[float, str]]:
    """SearchStats of the core cases, summed: evidence of identical work.

    ``engine.max_width`` is the widest level before pruning, the largest
    list of children a solve holds at once.
    """
    stats = [s for s in stats if s is not None]
    out: dict[str, tuple[float, str]] = {
        f"engine.{name}": (sum(getattr(s, name) for s in stats), "count")
        for name in WORK_COUNTERS
    }
    widths = [row for s in stats for row in s.per_level_width]
    generated = out["engine.generated"][0]
    out["engine.max_width"] = (max((raw for raw, _ in widths), default=0), "count")
    out["engine.survive_frac"] = (
        sum(undom for _, undom in widths) / generated if generated else 0.0, "frac")
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def _plain(wrap: Optional[Callable]) -> Callable:
    from frontier_search import engine

    if wrap is None:
        return engine.solve
    return lambda theory, config: engine.solve(wrap(theory), config)


def run_untraced(workload, cases, seconds: float, wrap) -> Ledger:
    """Cycle through the cases until ``seconds`` pass, core cases at least."""
    solve = _plain(wrap)
    ledger = Ledger(workload.core)
    ledger.ref_ns.append(reference.time_reference())
    start = perf_counter()
    i = 0
    while i < workload.core or perf_counter() - start < seconds:
        j = i % len(cases)
        k = j if j < workload.core else None
        out = solve_checked(cases[j], solve, ledger.first(k))
        ledger.add(cases[j].label, out)
        ledger.ref_ns.append(reference.time_reference())
        if k is not None and ledger.core[k] is None:
            ledger.core[k] = out
        i += 1
    return ledger


@dataclasses.dataclass
class TracedRun:
    #: The core cases solved untraced and traced, once each per pass.
    ledger: Ledger
    traced: Ledger
    tracer: Any
    passes: int = 0


def run_traced(workload, cases, seconds: float, wrap) -> TracedRun:
    """Each core case untraced, then traced, in whole passes while time remains.

    Each case's two solves run back to back, so that ``trace.overhead_frac``
    compares them at about the same machine speed.
    """
    from tracer import Tracer

    core = cases[:workload.core]
    plain = _plain(wrap)
    tracer = Tracer()

    def traced(theory, config):
        return tracer.traced_solve(wrap(theory) if wrap else theory, config)

    run = TracedRun(Ledger(len(core)), Ledger(len(core)), tracer)
    run.ledger.ref_ns.append(reference.time_reference())
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for k, case in enumerate(core):
            out = solve_checked(case, plain, run.ledger.first(k))
            run.ledger.add(case.label, out)
            run.ledger.ref_ns.append(reference.time_reference())
            run.ledger.core[k] = run.ledger.core[k] or out
            with tracer.patched_engine():
                out = solve_checked(case, traced, run.ledger.first(k),
                                    expected=run.ledger.core[k].expected)
            run.traced.add(f"traced {case.label}", out)
            run.traced.core[k] = run.traced.core[k] or out
        run.passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return run


def per_layer(run: TracedRun, setup_ms: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass over the core cases."""
    from tracer import HOOKS, STAGES

    tracer, passes = run.tracer, run.passes
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, counters=()):
        t = tracer.totals.get(name)
        out[f"{name}.s"] = ((t.ns if t else 0) / 1e9 / passes, "s")
        out[f"{name}.self_s"] = ((t.self_ns if t else 0) / 1e9 / passes, "s")
        out[f"{name}.calls"] = ((t.calls if t else 0) // passes, "count")
        for c in counters:
            out[f"{name}.{c}"] = ((t.counts[c] if t else 0) // passes, "count")

    span("engine.solve")
    for stage, (counters, _) in STAGES.items():
        span(f"engine.{stage}", counters)
    out.update(work_counters([o.stats for o in run.ledger.core]))
    for hook in HOOKS:
        out[f"theory.{hook}.calls"] = (tracer.hooks[hook][0] // passes, "count")
        out[f"theory.{hook}.s"] = (tracer.hook_s(hook) / passes, "s")
    calls, _, true = tracer.hooks["dominates"]
    out["theory.dominates.true_frac"] = (true / calls if calls else 0.0, "frac")
    calls, _, moves = tracer.hooks["child_moves"]
    out["theory.child_moves.moves_per_call"] = (moves / calls if calls else 0.0,
                                                "moves/call")
    out["oracles.ref.s"] = (run.ledger.oracle_ns / 1e9 / passes, "s")
    out["oracles.ref.calls"] = (run.ledger.oracle_calls / passes, "count")
    for part in ("cli.gen", "cli.render", "cli.parse", "problems.construct"):
        out[f"{part}.s"] = (setup_ms[part] / 1e3, "s")
    plain_ns, traced_ns = sum(run.ledger.solve_ns), sum(run.traced.solve_ns)
    out["trace.overhead_frac"] = (
        (traced_ns - plain_ns) / plain_ns if plain_ns else 0.0, "frac")
    # What the overhead correction leaves: traced solve time with the
    # tracer's calibrated overhead taken out, against untraced.
    corrected_ns = out["engine.solve.s"][0] * 1e9 * passes
    out["trace.residual_frac"] = (
        (corrected_ns - plain_ns) / plain_ns if plain_ns else 0.0, "frac")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def set_up_timed(workload, seed: int):
    """Set the workload up SETUP_REPEATS times and keep the last cases.

    Each set-up runs with the garbage collector off, after a full collection,
    and is scaled by the reference workload timed just before and just after
    it (see ``reference.py``): set-up is over in about a second, so the speed
    of the solves that follow says little about the speed it ran at.  Returns
    the set-up and the median scaled milliseconds of each part and of the
    whole set-up.
    """
    from workloads import set_up

    parts: dict[str, list[float]] = {}
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None
        gc.collect()
        before = reference.time_reference()
        gc.disable()
        try:
            setup = set_up(workload, seed)
        finally:
            gc.enable()
        gc.collect()
        scale = reference.NOMINAL_NS / ((before + reference.time_reference()) / 2)
        for part, ns in {**setup.ns, "setup": sum(setup.ns.values())}.items():
            parts.setdefault(part, []).append(ns / 1e6 * scale)
    return setup, {part: statistics.median(v) for part, v in parts.items()}


def _parser(names) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    text = f"{name} {value!r} {unit}"
    return f"{text}  ({note})" if note else text


def main(argv: Optional[list[str]] = None, *, tiny: bool = False,
         wrap: Optional[Callable] = None) -> int:
    """Run one workload and print its metrics.

    ``tiny`` and ``wrap`` (a function applied to each theory before it is
    solved) are for the self-test; the command line cannot set them.
    """
    _load_library()
    from workloads import workloads

    specs = workloads(tiny)
    args = _parser(sorted(specs)).parse_args(argv)
    workload = specs[args.workload]
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} core={workload.core} cases")

    setup, setup_ms = set_up_timed(workload, args.seed)
    gc.collect()
    if args.trace:
        run = run_traced(workload, setup.cases, args.seconds, wrap)
        ledger, ledgers = run.ledger, [run.ledger, run.traced]
    else:
        ledger = run_untraced(workload, setup.cases, args.seconds, wrap)
        ledgers = [ledger]
    failures = [f for led in ledgers for f in led.failures]
    attempted = sum(len(led.solve_ns) for led in ledgers)
    e2e, tail_note = ledger.end_to_end(scaled=True)
    e2e["failed_frac"] = (len(failures) / attempted, "frac")
    e2e["setup_s"] = (setup_ms["setup"] / 1e3, "s")
    e2e["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
    wall, _ = ledger.end_to_end(scaled=False)

    problems = list(failures)
    if not setup.round_trip_ok:
        problems.append("render/parse round trip changed an instance")
    digest = fingerprint(ledger.records())
    lines = dict(e2e)
    for name in ("solve_ms.p50", "solve_ms.tail", "solves_per_s"):
        lines[f"{name}.wall"] = wall[name]
    lines["speed_scale"] = (ledger.speed_scale(), "x")
    lines.update(work_counters([o.stats for o in ledger.core if o]))
    if args.trace:
        traced_digest = fingerprint(run.traced.records())
        if traced_digest != digest:
            problems.append(f"traced fingerprint {traced_digest} != untraced {digest}")
        metrics = per_layer(run, setup_ms)
        lines.update(metrics)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        run.tracer.write_spans(spans)
        print(f"spans {spans.relative_to(ROOT)}  ({run.passes} passes of the core cases)")
    else:
        metrics = {k: v for k, v in e2e.items() if k not in NOT_IN_RESULT}

    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in lines.items():
        print(_line(name, value, unit, tail_note if name == "solve_ms.tail" else ""))
    print(f"fingerprint {digest}  ({workload.core} core cases)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
