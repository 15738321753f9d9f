"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

It runs every workload in both modes and checks that:

* every metric the benchmark defines is printed with its unit, and the last
  line is the result object that ``BENCHMARK.json`` promises;
* a correct run reports ``failed_frac`` 0, and the traced and untraced runs
  of one seed have the same work fingerprint;
* the tracer's counts agree with the engine's own ``SearchStats``, and its
  theory proxy keeps the attributes that pick ``solve``'s code path;
* a theory wrapper with a deliberately wrong cost makes ``failed_frac`` > 0;
* without ``src/`` next to it the benchmark fails without printing a result.

Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

run._load_library()
from tracer import HOOKS  # noqa: E402  (needs the library on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Every metric the benchmark is specified to print, with its unit.
EXPECTED = {
    "solve_ms.p50": "ms", "solve_ms.tail": "ms", "solves_per_s": "1/s",
    "ref_ratio": "ratio", "failed_frac": "frac", "setup_s": "s",
    "peak_rss_mb": "MiB",
    "engine.expand.s": "s", "engine.dedupe.s": "s", "engine.dedupe.removed": "count",
    "engine.reduce_equivalent.s": "s", "engine.reduce_equivalent.merged": "count",
    "engine.filter_dominated.s": "s", "engine.filter_dominated.in": "count",
    "engine.filter_dominated.pruned": "count", "engine.collect_locals.s": "s",
    "engine.collect_locals.found": "count", "engine.solve.self_s": "s",
    "engine.levels": "count", "engine.generated": "count",
    "engine.duplicates_removed": "count", "engine.equivalence_merged": "count",
    "engine.dominated_pruned": "count", "engine.locals_found": "count",
    "engine.max_width": "count", "engine.survive_frac": "frac",
    **{f"theory.{h}.calls": "count" for h in HOOKS},
    **{f"theory.{h}.s": "s" for h in HOOKS},
    "theory.dominates.true_frac": "frac",
    "theory.child_moves.moves_per_call": "moves/call",
    "oracles.ref.s": "s", "oracles.ref.calls": "count",
    "cli.gen.s": "s", "cli.parse.s": "s", "trace.overhead_frac": "frac",
    "trace.residual_frac": "frac",
}


def invoke(workload: str, trace: int, wrap=None) -> tuple[dict, str, dict]:
    """Run one tiny workload in-process: printed metrics, fingerprint, result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)], tiny=True, wrap=wrap)
    assert code == 0, code
    lines = out.getvalue().splitlines()
    printed, digest = {}, None
    for line in lines[:-1]:
        fields = line.split()
        if fields[0] == "fingerprint":
            digest = fields[1]
        elif not fields[0].startswith("#") and fields[0] != "spans":
            printed[fields[0]] = (float(fields[1]), fields[2])
    return printed, digest, json.loads(lines[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }, sorted(result["metrics"])


def wrong_cost(theory):
    """The theory with every solution's cost off by one."""
    bad = copy.copy(theory)
    bad.cost = lambda z: theory.cost(z) + 1
    return bad


def check_workload(workload: str) -> None:
    plain, digest, result = invoke(workload, 0)
    check_result(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0, result
    assert plain["failed_frac"][0] == 0

    traced, traced_digest, result = invoke(workload, 1)
    check_result(result, BENCHMARK["per_layer"])
    assert result["correct"] and result["failed"] == 0, result
    assert digest == traced_digest, (digest, traced_digest)
    for name, unit in EXPECTED.items():
        assert name in traced and traced[name][1] == unit, (name, traced.get(name))

    value = {name: v for name, (v, _) in traced.items()}
    for name in value:
        if name.endswith(".self_s"):
            assert 0 <= value[name] <= value[name[:-len("self_s")] + "s"] * 1.0001, name
    stages = sum(value[f"engine.{s}.s"] for s in
                 ("expand", "dedupe", "reduce_equivalent", "filter_dominated",
                  "collect_locals"))
    assert stages <= value["engine.solve.s"], (stages, value["engine.solve.s"])
    for name in run.WORK_COUNTERS:
        assert plain[f"engine.{name}"] == traced[f"engine.{name}"], name
    assert value["engine.filter_dominated.pruned"] <= value["engine.dominated_pruned"]
    assert value["engine.dedupe.removed"] == value["engine.duplicates_removed"]
    assert value["engine.reduce_equivalent.merged"] == value["engine.equivalence_merged"]
    assert value["engine.collect_locals.found"] == value["engine.locals_found"]
    assert value["theory.feasible.calls"] >= value["engine.locals_found"]
    # Each untraced solve of a pass calls its oracle at least once.
    assert value["oracles.ref.calls"] >= value["engine.solve.calls"] > 0
    if workload == "tree-greedy":
        assert value["theory.dominates.calls"] == 0
        assert value["engine.filter_dominated.calls"] == 0
    else:
        # Exhaustive: every generated child is one apply_move call.
        assert value["theory.apply_move.calls"] == value["engine.generated"]

    for trace in (0, 1):
        bad, _, result = invoke(workload, trace, wrap=wrong_cost)
        assert bad["failed_frac"][0] > 0, bad["failed_frac"]
        assert not result["correct"] and result["failed"] > 0, result


def check_proxy() -> None:
    """The proxy keeps the attributes that pick ``solve``'s code path."""
    from frontier_search import IdentityDominance
    from tracer import TracedTheory, Tracer
    from workloads import set_up, workloads

    for workload in workloads(tiny=True).values():
        for case in set_up(workload, 1).cases:
            for base in (case.theory, IdentityDominance(case.theory)):
                proxy = TracedTheory(base, Tracer())
                assert proxy.direction is base.direction
                assert proxy.strictly_ranked == base.strictly_ranked
                assert (proxy.equivalence_key is None) == (base.equivalence_key is None)


def check_without_program() -> None:
    """In a directory with only the benchmark's own files it must fail."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"ok {workload}")
    check_proxy()
    print("ok tracing proxy")
    check_without_program()
    print("ok without program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
