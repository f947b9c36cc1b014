"""Smoke test of the demos: each runs to the end in a fresh interpreter.
Demo 04 solves 61 finite economies in a few seconds; demo 05, an LP scan
and the vertex sampling of ``pca_probe``, takes about 13 s."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_phase_transition.py", "02_development_sweep.py",
         "03_distributions.py", "04_finite_economies.py",
         pytest.param("05_feasible_geometry.py", marks=pytest.mark.slow))


def run_demo(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    out = run_demo(name)
    if name.startswith("01"):
        rows = [line.split()[:2] for line in out.splitlines()]
        for pi in ("0.330", "0.300", "0.250"):
            assert [pi, "collapsed"] in rows
    if name.startswith("05"):
        # one base seed: the primary sets, and so the fractions, nest in pi
        table = out.split("fraction\n")[1].split("\n\n")[0]
        fracs = [float(line.split()[1]) for line in table.splitlines()]
        assert len(fracs) == 6 and fracs == sorted(fracs)
