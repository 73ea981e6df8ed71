"""Smoke tests: the quicker demos run to completion against the public API.

Demo 03 (about 22 s) is left out to keep the suite quick."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_six_vertex_counterexample.py",
                                  "02_type_classification.py", "04_lp_duality.py",
                                  "05_extremal_search.py"])
def test_demo_runs(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                        capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr
