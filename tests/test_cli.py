import json
import subprocess
import sys

import numpy as np
import pytest
import scipy

from randecon.cli import _fmt_cell
from randecon.ensemble import EnsembleParams
from randecon.finite import lp_feasibility_fraction

CLI = [sys.executable, "-m", "randecon"]


def run_cli(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def data_rows(output):
    return [line for line in output.splitlines()
            if line and not line.startswith("#")]


class TestSaddle:
    def test_csv_output(self):
        proc = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1")
        rows = data_rows(proc.stdout)
        assert rows[0].split(",")[0] == "n"   # header row
        assert len(rows) == 2
        assert rows[1].split(",")[4] == "industrial"

    def test_metadata_header(self):
        proc = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1")
        meta = [l for l in proc.stdout.splitlines() if l.startswith("#")]
        assert any("version" in l for l in meta)
        assert any("command" in l for l in meta)

    def test_versions_and_wall_time_in_metadata(self):
        args = ("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                "--eps", "0.1")
        csv = run_cli(*args).stdout
        meta = dict(line[2:].split(" = ", 1) for line in csv.splitlines()
                    if line.startswith("# "))
        assert meta["numpy"] == np.__version__
        assert meta["scipy"] == scipy.__version__
        assert float(meta["wall_s"]) >= 0.0
        payload = json.loads(run_cli(*args, "--format", "json").stdout)
        assert payload["meta"]["numpy"] == np.__version__
        assert payload["meta"]["scipy"] == scipy.__version__
        assert payload["meta"]["wall_s"] >= 0.0
        assert "arg.started" not in payload["meta"]

    def test_json_format(self):
        proc = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", "--format", "json")
        payload = json.loads(proc.stdout)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["branch"] == "industrial"
        assert payload["meta"]["command"] == "saddle"

    def test_failed_solve_is_a_failed_row(self):
        # no root meets this tolerance: a "failed" row and the partial exit
        proc = run_cli("saddle", "--n", "2", "--pi", "0.65", "--tol", "1e-30",
                       check=False)
        assert proc.returncode == 1, proc.stderr
        row = data_rows(proc.stdout)[1].split(",")
        assert row[4] == "failed"
        assert row[-4:] == ["nan"] * 4

    def test_byte_identical_reruns(self):
        args = ("saddle", "--n", "1", "--pi", "0.6", "--f", "0.5",
                "--eps", "0.1")
        a = data_rows(run_cli(*args).stdout)
        b = data_rows(run_cli(*args).stdout)
        assert a == b


class TestSweep:
    def test_n_sweep(self):
        proc = run_cli("sweep", "--var", "n", "--from", "2", "--to", "3",
                       "--points", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4  # header + 3 points

    def test_intermediate_sweep(self):
        proc = run_cli("sweep", "--var", "i", "--from", "0.1", "--to", "0.3",
                       "--points", "3", "--fix", "f-over-n=0.3",
                       "--fix", "pi-over-n=0.4", "--eps", "0.1")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4

    def test_unknown_variable_is_config_error(self):
        proc = run_cli("sweep", "--var", "bogus", "--from", "0", "--to", "1",
                       "--points", "2", check=False)
        assert proc.returncode == 2


class TestCriticalLine:
    def test_values(self):
        proc = run_cli("critical-line", "--eps", "0.1", "--from", "1",
                       "--to", "2", "--points", "2")
        rows = data_rows(proc.stdout)
        assert len(rows) == 3
        first = rows[1].split(",")
        assert float(first[2]) == pytest.approx(0.330440, abs=2e-5)


class TestFiniteCommands:
    def test_finite(self):
        proc = run_cli("finite", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", "--C", "20", "--instances", "2",
                       "--seed", "0")
        rows = data_rows(proc.stdout)
        assert len(rows) == 2

    def test_lp_fraction_pi_grid(self):
        proc = run_cli("lp-fraction", "--n", "1", "--eps", "0.1", "--f",
                       "0.5", "--C", "40", "--trials", "5", "--seed", "0",
                       "--from", "0.2", "--to", "0.6", "--points", "3")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4
        fracs = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.0 <= x <= 1.0 for x in fracs)
        # fraction grows with the primary share
        assert fracs == sorted(fracs)
        # the pi grid runs in a thread pool; its rows are the serial records
        params = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        want = []
        for pi in np.linspace(0.2, 0.6, 3):
            r = lp_feasibility_fraction(params.with_(pi=float(pi)), 40, 5, 0)
            want.append(",".join(_fmt_cell(v) for v in (
                r.n, r.pi, r.eps, r.N, r.trials, r.feasible_count, r.fraction)))
        assert rows[1:] == want
        # the LPs solved over the grid: at most one per trial and point
        lps = [line for line in proc.stdout.splitlines()
               if line.startswith("# lps = ")]
        assert len(lps) == 1 and 1 <= int(lps[0].split("=")[1]) <= 15

    def test_pca_probe(self):
        proc = run_cli("pca-probe", "--n", "1", "--pi", "0.6", "--f", "0.5",
                       "--eps", "0.1", "--C", "25", "--tech-draws", "2",
                       "--objective-draws", "4", "--seed", "0")
        rows = data_rows(proc.stdout)
        assert len(rows) == 2


class TestValidate:
    def test_green(self):
        proc = run_cli("validate")
        assert "FAIL" not in proc.stdout

    def test_loads_no_scipy_stats(self):
        # a fresh interpreter, so no other test has imported scipy.stats
        code = ("import sys\n"
                "from randecon.cli import main\n"
                "main(['validate'])\n"
                "print('scipy.stats' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestPlumbing:
    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        run_cli("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                "--eps", "0.1", "-o", str(target))
        assert target.exists()
        assert len(data_rows(target.read_text())) == 2

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pi=0.9\n")
        with_flag = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f",
                            "0.5", "--eps", "0.1")
        with_cfg = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f",
                           "0.5", "--eps", "0.1", "--config", str(cfg))
        row_flag = data_rows(with_flag.stdout)[1].split(",")
        row_cfg = data_rows(with_cfg.stdout)[1].split(",")
        assert float(row_flag[1]) == 0.65
        assert float(row_cfg[1]) == 0.9

    def test_bad_config_path_exit_2(self):
        proc = run_cli("saddle", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", "--config", "/nonexistent/x.cfg",
                       check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("command",
                             ("critical-line", "finite", "lp-fraction", "pca-probe"))
    def test_tol_only_on_saddle_solves(self, command):
        # only saddle and sweep read --tol; elsewhere it is a usage error
        proc = run_cli(command, "--tol", "1e-8", check=False)
        assert proc.returncode == 2
        assert "--tol" in proc.stderr

    @pytest.mark.parametrize("command", ("lp-fraction", "pca-probe"))
    def test_no_workers_flag(self, command):
        # the pi-grid pool is sized from the machine, not from a flag
        proc = run_cli(command, "--workers", "2", check=False)
        assert proc.returncode == 2
        assert "--workers" in proc.stderr

    def test_invalid_params_exit_2(self):
        proc = run_cli("saddle", "--n", "-1", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", check=False)
        assert proc.returncode == 2
