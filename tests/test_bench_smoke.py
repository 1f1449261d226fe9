"""The benchmark's self-check runs against this checkout.

``bench/run.py --self-check`` runs one op per workload at mesh.n = 16,
untraced and traced, checks the outputs and the metric names, and reports
every traced function that no longer exists.  Renaming a function the
benchmark traces therefore fails here, not only in a later benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes_with_every_span_present():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-check passed" in run.stdout
    assert "absent spans" not in run.stdout + run.stderr, run.stdout
