"""Smoke tests: every demo and the README's library quick start run to
completion against the public API, and the helpers a demo defines keep
their checks."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    """A fresh interpreter with the source tree on its path."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("name", ["01_six_vertex_counterexample.py",
                                  "02_type_classification.py", "03_finite_oracle.py",
                                  "04_lp_duality.py", "05_extremal_search.py"])
def test_demo_runs(name):
    cp = _run_python(str(ROOT / "demos" / name))
    assert cp.returncode == 0, cp.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    cp = _run_python("-c", block)
    assert cp.returncode == 0, cp.stderr
    alpha, ordered, beta, pattern = cp.stdout.splitlines()
    assert (alpha, ordered, pattern) == ("7/2", "True", "TK")
    assert float(beta) == pytest.approx(0.01613474, abs=1e-6)


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
