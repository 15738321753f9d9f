"""Record the benchmark's baseline at the current commit.

    python3 perfbench/baseline.py

It makes two sets of runs, one after the other.  In each set every workload
runs ``run.py`` once per seed 1..10, untraced, for the ``run_seconds`` of
``BENCHMARK.json``, one process after another; after the second set each
workload also runs once traced with seed 1.  It rewrites
``perfbench/baseline.json`` in full, after each workload of each set: every
run's metrics, work fingerprint and tail percentile; per set and end-to-end
metric the median, the quartiles and the spread (quartile distance over
median) that the bounds in ``BENCHMARK.json`` are checked against; how much
worse the second set's medians are than the first's; and whether the two
sets' fingerprints are the same seed by seed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = range(1, 11)
SETS = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    row = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"]}
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name == "fingerprint":
            row["fingerprint"] = rest.split()[0]
        elif name == "solve_ms.tail":
            row["tail"] = rest.split("(", 1)[1].rstrip(")")
    row["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return row


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": metric["bound"],
        }
    return out


def agreement(first: dict, second: dict, declared: list[dict]) -> dict:
    """How much worse the second set's medians are than the first's."""
    out = {}
    for metric in declared:
        a, b = first[metric["name"]]["median"], second[metric["name"]]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        out[metric["name"]] = {"worse_by": worse, "bound": metric["bound"],
                               "within": worse <= metric["bound"]}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
    baseline = {
        "run_seconds": bench["run_seconds"],
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {_cpu_model()}, {os.cpu_count()} cpus",
        "workloads": {w["name"]: {"why": w["why"], "sets": []} for w in bench["workloads"]},
    }
    path = HERE / "baseline.json"
    for n in range(1, SETS + 1):
        for w in bench["workloads"]:
            runs = []
            for seed in SEEDS:
                runs.append(run_once(w["name"], seed, bench["run_seconds"], 0))
                print(f"set {n}", w["name"], seed, runs[-1]["metrics"], flush=True)
            entry = baseline["workloads"][w["name"]]
            entry["sets"].append({"summary": summarize(runs, declared), "runs": runs})
            if n == SETS:
                first, last = entry["sets"][0], entry["sets"][-1]
                entry["agreement"] = agreement(first["summary"], last["summary"], declared)
                entry["fingerprints_match"] = (
                    [r["fingerprint"] for r in first["runs"]]
                    == [r["fingerprint"] for r in last["runs"]])
                entry["traced_seed1"] = run_once(w["name"], 1, bench["run_seconds"], 1)
            path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
