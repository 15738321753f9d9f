"""The benchmark's own self-test, run against the library in this checkout.

``perfbench`` wraps theories in a tracing proxy and patches the engine's
stage functions by name, so a refactor of ``src/`` can break it without any
other test noticing.  Its self-test checks that interface at a tiny size.

The workloads' seed-1 fingerprints are pinned too: a change that alters the
work the engine does on them changes a fingerprint, and updates its pin here
with the reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FINGERPRINTS = {
    # Knapsack decides its items in ratio order, the order its bound scans,
    # so the bound tightens sooner and its searches generate fewer children
    # (1,543 -> 895 over the seed-1 cases).  Optimal costs are unchanged, but
    # knapsack#4 reports another optimum of equal weight and utility: a merge
    # keeps the first member generated, and generation follows the decision
    # order.  The incumbent is then the best of the greedy fill and forced
    # fills around the break item, exact on 250 of the 300 seed-1 instances
    # where the greedy fill was on 149, so the bound admits fewer prefixes:
    # over the seed-1 cases generated fell 895 -> 558, dominated_pruned
    # 86 -> 11, locals_found 21 -> 13 and max_width 30 -> 11, while levels
    # (360), equivalence_merged (1) and the optima stayed.
    "knapsack-exhaustive": "7fb4a9e8437a8b89",
    "tree-greedy": "8981eebb5dadbb03",
    # spsp keeps a move only when its cost plus a lower bound on the rest of
    # the way reaches no higher than the cheapest fewest-edge path, so its
    # searches generate fewer children.  Optimal costs and optima are
    # unchanged; the counters and widths fall.  Each node's limit is also cut
    # to its price, the cost of its cheapest fewest-edge path, so a child
    # that dominance would prune straight away is not built: over the seed-1
    # cases generated fell 16,439 -> 7,612, dominated_pruned 14,596 ->
    # 5,803 and equivalence_merged 62 -> 28, while levels (75),
    # locals_found (22) and the survivors (1,781) stayed.  The incumbent is
    # then one breadth-first relaxation sweep's cost at the target, at most
    # its fewest-edge price, so the bound admits fewer paths: over the
    # seed-1 cases generated fell 7,612 -> 1,147, dominated_pruned 5,803 ->
    # 470, equivalence_merged 28 -> 3, levels 75 -> 60, locals_found 22 -> 12
    # and the survivors 1,781 -> 674, with the same optima.  Each node's
    # limit is then its swept cost in place of its price, so children that
    # cost more than a simple path the theory already holds to their end
    # node are not built: over the seed-1 cases generated fell 1,147 -> 708,
    # dominated_pruned 470 -> 145, equivalence_merged 3 -> 0, locals_found
    # 12 -> 11 and the survivors 674 -> 563, while levels (60) and the optima
    # stayed.  A second relaxation sweep then follows back edges the first
    # missed, so the incumbent and the swept limits fall (the incumbent is
    # the optimum on 49 of the 60 seed-1 graphs, was 31) and fewer children
    # are built: over the seed-1 cases generated fell 708 -> 292,
    # dominated_pruned 145 -> 1, levels 60 -> 54, locals_found 11 -> 8 and
    # the survivors 563 -> 291, with the same optima.
    "spsp-exhaustive": "d98142a96a7dd972",
}


def start_perfbench(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc):
    out, err = proc.communicate(timeout=600)
    return proc.returncode, out, err


def test_perfbench_selftest_passes():
    code, out, err = finish(start_perfbench("perfbench/selftest.py"))
    assert code == 0, out[-2000:] + err[-2000:]


@pytest.fixture(scope="module")
def seed_one_runs():
    # ``--seconds 0`` solves each core case once, which is all the
    # fingerprint covers.  The runs are independent, so they run side by
    # side; most of their time is the workloads' set-up.
    procs = {
        workload: start_perfbench(
            "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", "0",
        )
        for workload in FINGERPRINTS
    }
    try:
        return {workload: finish(proc) for workload, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("workload", sorted(FINGERPRINTS))
def test_workload_fingerprint_is_pinned(workload, seed_one_runs):
    code, out, err = seed_one_runs[workload]
    assert code == 0, out[-2000:] + err[-2000:]
    printed = [line.split()[1] for line in out.splitlines()
               if line.startswith("fingerprint ")]
    assert printed == [FINGERPRINTS[workload]]
