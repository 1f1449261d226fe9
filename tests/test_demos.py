"""Every narrated demo runs to completion against this checkout.

Each script in ``demos/`` runs in its own interpreter, in an empty working
directory (the demos write ``demo_out/`` there), with ``src`` on the path.
A demo that calls the library with a removed or renamed argument fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
