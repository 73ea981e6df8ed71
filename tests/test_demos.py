"""Smoke tests: every demo runs to completion against the public API, and
the helpers a demo defines keep their checks."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_six_vertex_counterexample.py",
                                  "02_type_classification.py", "03_finite_oracle.py",
                                  "04_lp_duality.py", "05_extremal_search.py"])
def test_demo_runs(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                        capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr


def _demo_module(name):
    """A demo loaded as a module, so its __main__ block does not run."""
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""),
                                                  ROOT / "demos" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_epsilon_for_density():
    epsilon_for_density = _demo_module("04_lp_duality.py").epsilon_for_density
    assert epsilon_for_density(2.0 / 1000.0, 1000) == pytest.approx(1.0, rel=1e-12)
    assert epsilon_for_density(2.0, 50) == 0.0
    assert epsilon_for_density(0.02, 1000) == pytest.approx(2.0 / 3.0, rel=1e-12)
    for beta, n in ((0.5, 37), (0.001, 12), (1.0, 999)):
        eps = epsilon_for_density(beta, n)
        assert n ** -eps == pytest.approx(beta / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        epsilon_for_density(0.0, 10)
    with pytest.raises(ValueError):
        epsilon_for_density(0.5, 1)
