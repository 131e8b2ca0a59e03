"""Smoke tests for the scripts under scripts/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_third_order_sweep_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "third_order_sweep.py"), "--n-list", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checked 24 cases, 0 vanishing residuals" in proc.stdout
