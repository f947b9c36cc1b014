"""Four figure recipes rerun in process against their stored data rows.

tests/data holds the data rows of scale_peak_eps001.conf (the anchor path,
then warm points), intermediate_goods.conf (cold 0, warm and pi_c labels)
and critical_line_eps001.conf, as the CLI wrote them.  A rerun must give
the same columns and rows, the same branch in every row, and every float
cell to 1e-9 relative.  The rows are not compared byte for byte: another
CPU's vectorised exp may move the last bits of a root, and with them the
evaluation count, so `iters` is skipped, and the residual, a norm at the
rounding level, is held to an absolute floor instead.

The slow tier also reruns elongation_probe.conf, whose rows were written
when lambda_max came from the eigenvalues of the N x N correlation
matrix.  Its parameters, sample counts and flags must match exactly, and
lambda_max to 1e-12 relative.
"""
import math
import pathlib

import pytest

from randecon.cli import main

ROOT = pathlib.Path(__file__).parent.parent
RELATIVE = 1e-9
#: the residual of an accepted root is a rounding-level norm (at most 1e-10)
RESIDUAL_FLOOR = 1e-12


def rows(text):
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


def same_cell(got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w) or math.isinf(w):
        return got == want
    return math.isclose(g, w, rel_tol=RELATIVE, abs_tol=0.0)


@pytest.mark.parametrize("command, recipe", [
    ("sweep", "scale_peak_eps001"),
    ("sweep", "intermediate_goods"),
    ("critical-line", "critical_line_eps001"),
])
def test_recipe_rows_match_the_stored_ones(command, recipe, capsys):
    assert main([command, "--config",
                 str(ROOT / "figures" / f"{recipe}.conf")]) == 0
    got = rows(capsys.readouterr().out)
    want = rows((ROOT / "tests" / "data" / f"{recipe}.csv").read_text())
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        for name, a, b in zip(header, g, w):
            if name == "iters":
                continue
            if name == "residual":
                assert abs(float(a) - float(b)) <= RESIDUAL_FLOOR, (w[0], name)
            else:
                assert same_cell(a, b), (w[0], name, a, b)


@pytest.mark.slow
def test_elongation_probe_rows_match_the_stored_ones(capsys):
    assert main(["pca-probe", "--config",
                 str(ROOT / "figures" / "elongation_probe.conf")]) == 0
    got = rows(capsys.readouterr().out)
    want = rows((ROOT / "tests" / "data" / "elongation_probe.csv").read_text())
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        for name, a, b in zip(header, g, w):
            if name.startswith("lambda_max"):
                assert math.isclose(float(a), float(b), rel_tol=1e-12,
                                    abs_tol=0.0), (w[1], name, a, b)
            else:
                assert a == b, (w[1], name)
