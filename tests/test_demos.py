"""Smoke test: every demo script runs to completion, under the warning
filters tier-1 applies (``pyproject.toml``), so a numpy overflow or a
deprecated call in a demo fails too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
