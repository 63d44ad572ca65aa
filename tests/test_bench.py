"""The benchmark's own self-test, run against this tree's sources.

``bench/tracing.py`` patches engine and memory methods by name and reads
some of their arguments by name or position, so a rename or a signature
change that breaks the benchmark fails here rather than in a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    output = result.stdout + result.stderr
    assert result.returncode == 0, output[-3000:]
    assert result.stdout.splitlines()[-1] == "self-test passed", output[-3000:]
