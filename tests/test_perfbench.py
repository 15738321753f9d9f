"""The benchmark's own self-test, run against the library in this checkout.

``perfbench`` wraps theories in a tracing proxy and patches the engine's
stage functions by name, so a refactor of ``src/`` can break it without any
other test noticing.  Its self-test checks that interface at a tiny size.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
