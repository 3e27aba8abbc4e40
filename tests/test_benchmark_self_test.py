"""The benchmark's self-test passes.

``benchmarks/run.py --self-test`` runs one small instance of each
workload through its independent output checks, feeds those checks
corrupted results that they must reject, and checks ``BENCHMARK.json``
against the workloads.  Running it here keeps those checks working
between benchmark runs.  The benchmark files are run, never modified.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "self-test: ok" in proc.stdout.splitlines()
