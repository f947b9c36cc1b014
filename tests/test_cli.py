import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

from randecon import critical, finite, replica
from randecon.cli import (SOLUTION_COLUMNS, _fmt_cell, _solution_rows,
                          build_parser, main, parse_args)
from randecon.ensemble import EnsembleParams, economy_draws
from randecon.errors import NoConvergenceError, NoRootError
from randecon.finite import lp_feasibility_fraction
from randecon.replica import SaddleSolution, sweep

FIGURES = sorted((pathlib.Path(__file__).parent.parent / "figures").glob("*.conf"))

CLI = [sys.executable, "-m", "randecon"]

#: the option strings of each subcommand, sorted
SETTINGS = {
    "saddle": "--config --eps --f --format --n --output --pi -o",
    "sweep": "--config --eps --f --f-over-n --format --from --n --output "
             "--pi --pi-over-n --points --to --var -o",
    "critical-line": "--config --eps --format --from --output --points --to -o",
    "finite": "--C --config --eps --f --format --instances --n --output --pi "
              "--seed -o",
    "lp-fraction": "--C --config --eps --format --from --n --output --pi "
                   "--points --seed --to --trials -o",
    "pca-probe": "--C --config --eps --format --from --n --objective-draws "
                 "--output --pi --points --seed --tech-draws --to -o",
    "validate": "",
}


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

    def test_failed_solve_is_a_failed_row(self, monkeypatch, capsys):
        # no root within this budget: a "failed" row and the partial exit
        monkeypatch.setattr(replica, "_BUDGET", 5)
        assert main(["saddle", "--n", "2", "--pi", "0.65"]) == 1
        row = data_rows(capsys.readouterr().out)[1].split(",")
        assert row[4] == "failed"
        assert row[-4:] == ["nan"] * 4

    def test_failed_row_reports_its_evaluations(self, monkeypatch, capsys):
        # the failed row's iters are the residual evaluations its solve spent
        monkeypatch.setattr(replica, "_BUDGET", 5)
        calls, inner = [], replica._regular
        monkeypatch.setattr(replica, "_regular",
                            lambda *a: calls.append(1) or inner(*a))
        assert main(["saddle", "--n", "2", "--pi", "0.65"]) == 1
        row = data_rows(capsys.readouterr().out)[1].split(",")
        assert row[4] == "failed"
        assert int(row[SOLUTION_COLUMNS.index("iters")]) == len(calls) > 0

    def test_byte_identical_reruns(self):
        args = ("saddle", "--n", "1", "--pi", "0.6", "--f", "0.5",
                "--eps", "0.1")
        a = data_rows(run_cli(*args).stdout)
        b = data_rows(run_cli(*args).stdout)
        assert a == b


    def test_eps_one(self):
        # pi_c(0.5, 1) is about 0.744, so the point is collapsed
        proc = run_cli("saddle", "--eps", "1", "--n", "0.5", "--pi", "0.1")
        assert data_rows(proc.stdout)[1].split(",")[4] == "collapsed"


class TestSweep:
    def test_n_sweep(self):
        proc = run_cli("sweep", "--var", "n", "--from", "2", "--to", "3",
                       "--points", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4  # header + 3 points
        # the step that settled each row, counted
        assert "# paths = cold 0: 1; warm: 2\n" in proc.stdout

    def test_intermediate_sweep(self):
        proc = run_cli("sweep", "--var", "i", "--from", "0.1", "--to", "0.3",
                       "--points", "3", "--f-over-n", "0.3",
                       "--pi-over-n", "0.4", "--eps", "0.1")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4

    def test_unknown_variable_is_config_error(self):
        proc = run_cli("sweep", "--var", "bogus", "--from", "0", "--to", "1",
                       "--points", "2", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("fix", (("--f-over-n", "0.3"),
                                     ("--pi-over-n", "0.4")))
    def test_intermediate_sweep_needs_both_ratios(self, fix):
        # one fixed ratio given: a usage error that names the other's flag
        missing, = {"--pi-over-n", "--f-over-n"} - {fix[0]}
        proc = run_cli("sweep", "--var", "i", "--from", "0.1", "--to", "0.3",
                       "--points", "2", *fix, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and missing in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_csv_schema(self):
        grid = [EnsembleParams(n=1.0, pi=pi, f=0.5, eps=0.1)
                for pi in (0.5, 0.28)]
        sols = sweep(grid)
        rows = _solution_rows(sols, ())
        assert len(SOLUTION_COLUMNS) == 13
        assert all(len(r) == 13 for r in rows)
        collapsed = rows[1]
        assert collapsed[4] == "collapsed"
        # a collapsed row carries fixed cells: (Omega, kappa, p, sigma, chi)
        # are exactly zero, chi_hat is NaN, and the residual is zero
        assert collapsed[5:10] == [0.0, 0.0, 0.0, 0.0, 0.0]
        assert np.isnan(collapsed[10])
        assert collapsed[11] == 0.0
        # observables follow the saddle cells, in the order asked for
        rows = _solution_rows(sols, ("phi", "x_mean"))
        assert all(len(r) == 15 for r in rows)
        assert rows[1][13:] == [0.0, 0.28]

    def test_failed_row_is_nan_throughout(self):
        sol = SaddleSolution(params=EnsembleParams(2.0, 0.65, 0.5, 0.1),
                             branch="failed", op=None,
                             residual_norm=np.inf, iterations=0,
                             path="failed")
        row, = _solution_rows([sol], ("phi", "utility"))
        assert row[4] == "failed"
        assert all(np.isnan(v) for v in row[5:11])
        assert row[13:] == ["nan", "nan"]


def settings_read(capsys, argv):
    """The ``arg.*`` metadata keys of an in-process run, and its data rows."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    keys = {line[2:].split(" = ")[0][4:] for line in out.splitlines()
            if line.startswith("# arg.")}
    return keys, data_rows(out)


class TestSettingsRead:
    """The metadata records the settings a run read, and no others."""

    def test_sweep_drops_its_variable(self, capsys):
        keys, _ = settings_read(capsys, ["sweep", "--var", "n", "--from", "2",
                                         "--to", "2.1", "--points", "2"])
        assert {"pi", "f", "eps", "var", "start", "stop", "points"} <= keys
        assert "n" not in keys
        keys, _ = settings_read(capsys, ["sweep", "--var", "pi", "--from", "0.6"])
        assert {"n", "f", "eps"} <= keys and "pi" not in keys

    def test_intermediate_sweep_drops_n_pi_f(self, capsys):
        keys, _ = settings_read(capsys, [
            "sweep", "--var", "i", "--from", "0.1", "--to", "0.3", "--points",
            "2", "--f-over-n", "0.3", "--pi-over-n", "0.4"])
        assert {"pi_over_n", "f_over_n", "eps", "var"} <= keys
        assert not keys & {"n", "pi", "f"}

    @pytest.mark.parametrize("command, extra", (
        ("lp-fraction", ["--C", "20", "--trials", "3"]),
        ("pca-probe", ["--C", "20", "--tech-draws", "2",
                       "--objective-draws", "3"]),
    ))
    def test_pi_grid_drops_pi(self, capsys, command, extra):
        base = [command, "--n", "1", "--seed", "0", *extra]
        keys, single = settings_read(capsys, base + ["--pi", "0.5"])
        assert "pi" in keys
        keys, grid = settings_read(capsys, base + ["--pi", "0.5", "--from",
                                                   "0.5", "--to", "0.6",
                                                   "--points", "2"])
        assert "pi" not in keys and {"start", "stop", "points"} <= keys
        # the grid's first point is the single run's point, byte for byte
        assert grid[:2] == single

    @pytest.mark.parametrize("var", ("n", "pi", "f", "eps"))
    @pytest.mark.parametrize("flag", ("--pi-over-n", "--f-over-n"))
    def test_ratios_only_with_var_i(self, capsys, var, flag):
        assert main(["sweep", "--var", var, "--from", "0.5", flag, "0.4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err and f"--var {var}" in err


class TestCriticalLine:
    def test_values(self):
        proc = run_cli("critical-line", "--eps", "0.1", "--from", "1",
                       "--to", "2", "--points", "2")
        rows = data_rows(proc.stdout)
        assert len(rows) == 3
        first = rows[1].split(",")
        assert float(first[2]) == pytest.approx(0.330440, abs=2e-5)

    def test_eps_one(self):
        proc = run_cli("critical-line", "--eps", "1", "--from", "0.5",
                       "--to", "1", "--points", "2")
        pi_c = [float(r.split(",")[2]) for r in data_rows(proc.stdout)[1:]]
        assert pi_c == pytest.approx([0.74418, 0.61335], abs=1e-5)

    def test_no_root_is_nan_row_and_partial(self, monkeypatch, capsys):
        original = critical.solve_critical_pi

        def none_at_1_5(n, eps):
            if n == 1.5:
                raise NoRootError("volume never vanishes")
            return original(n, eps)

        monkeypatch.setattr(critical, "solve_critical_pi", none_at_1_5)
        assert main(["critical-line", "--eps", "0.1", "--from", "1",
                     "--to", "2", "--points", "3"]) == 1
        rows = [r.split(",") for r in data_rows(capsys.readouterr().out)[1:]]
        assert [r[0] for r in rows] == ["1.0", "1.5", "2.0"]
        assert rows[1][2:] == ["nan", "nan", "inf"]
        assert all(float(r[2]) > 0 for r in (rows[0], rows[2]))


class TestFiniteCommands:
    def test_finite(self):
        proc = run_cli("finite", "--n", "3", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", "--C", "20", "--instances", "2",
                       "--seed", "0")
        rows = data_rows(proc.stdout)
        assert len(rows) == 2

    def test_lp_fraction_pi_grid(self):
        proc = run_cli("lp-fraction", "--n", "1", "--eps", "0.1",
                       "--C", "40", "--trials", "5", "--seed", "0",
                       "--from", "0.2", "--to", "0.6", "--points", "3")
        rows = data_rows(proc.stdout)
        assert len(rows) == 4
        fracs = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.0 <= x <= 1.0 for x in fracs)
        # fraction grows with the primary share
        assert fracs == sorted(fracs)
        # the pi grid runs point by point while each point shares its LPs
        # out over the CPUs; its rows are the serial records
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
        assert f"# lp_threads = {finite.lp_threads()}" in proc.stdout.splitlines()

    def test_descending_grid_is_solved_ascending(self):
        # the points are solved in ascending pi and written in grid order,
        # so a descending grid gives the reversed rows and the same LPs
        def run(start, stop):
            out = run_cli("lp-fraction", "--n", "1", "--eps", "0.1", "--C",
                          "30", "--trials", "6", "--seed", "5", "--from",
                          start, "--to", stop, "--points", "5").stdout
            lps = [line for line in out.splitlines() if line.startswith("# lps")]
            return data_rows(out), lps

        # a step of 0.125 gives the same points both ways
        (up_head, *up), up_lps = run("0.25", "0.75")
        (down_head, *down), down_lps = run("0.75", "0.25")
        assert down_head == up_head and down == up[::-1]
        assert down_lps == up_lps

    def test_pca_probe(self):
        proc = run_cli("pca-probe", "--n", "1", "--pi", "0.6",
                       "--eps", "0.1", "--C", "25", "--tech-draws", "2",
                       "--objective-draws", "4", "--seed", "0")
        rows = data_rows(proc.stdout)
        assert len(rows) == 2
        assert f"# lp_threads = {finite.lp_threads()}" in proc.stdout.splitlines()

    @pytest.mark.parametrize("command, extra", (
        ("lp-fraction", ["--trials", "4"]),
        ("pca-probe", ["--tech-draws", "2", "--objective-draws", "4"]),
    ))
    def test_healthy_run_has_no_lp_failures(self, command, extra):
        # run_cli checks exit 0; a nonzero count would exit 1 (partial)
        proc = run_cli(command, "--n", "1", "--eps", "0.1", "--C", "25",
                       "--seed", "0", "--from", "0.3", "--to", "0.6",
                       "--points", "2", *extra)
        lines = [line for line in proc.stdout.splitlines()
                 if line.startswith("# lp_failure")]
        assert lines == ["# lp_failures = 0", "# lp_failure_statuses = none"]

    def test_lp_fraction_lp_failure_is_partial(self, monkeypatch, capsys):
        # a line (seed) no other test scans, so every trial solves its LP;
        # trial 1's fails, told by its matrix q because the threads
        # solve the trials in no fixed order
        calls, original = [], finite.linprog
        q = economy_draws(EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1), 40,
                          9031 + 1)[0]

        def second_fails(*args):
            calls.append(1)
            res = original(*args)
            if np.array_equal(args[1], q):
                res.status, res.basis = 1, None
                res.message = "Time limit reached"
            return res

        monkeypatch.setattr(finite, "linprog", second_fails)
        assert main(["lp-fraction", "--n", "1", "--pi", "0.4", "--eps", "0.1",
                     "--C", "40", "--trials", "5", "--seed", "9031"]) == 1
        out = capsys.readouterr().out
        assert len(calls) == 5
        assert "# lp_failures = 1" in out.splitlines()
        assert "# lp_failure_statuses = Time limit reached: 1" in out.splitlines()

    def test_finite_failure_is_partial(self, monkeypatch, capsys):
        original = finite.solve_equilibrium

        def second_fails(econ):
            if econ.seed == 1:
                raise NoConvergenceError("stalled")
            return original(econ)

        monkeypatch.setattr(finite, "solve_equilibrium", second_fails)
        assert main(["finite", "--n", "3", "--pi", "0.65", "--f", "0.5",
                     "--eps", "0.1", "--C", "20", "--instances", "3",
                     "--seed", "0"]) == 1
        row = data_rows(capsys.readouterr().out)[1].split(",")
        assert row[5:7] == ["3", "1"]          # instances, failures

    def test_pca_probe_lp_failure_is_partial(self, monkeypatch, capsys):
        # one failed LP of 8, the second of the first technology draw (the
        # draws' LPs run in no fixed order, but those of one draw run in
        # order), leaves a record that is not collapsed, but the run
        # reports it and exits 1
        calls, original = [], finite.linprog
        q = economy_draws(EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1), 25,
                          0)[0]

        def second_fails(*args):
            first_draw = np.array_equal(args[1][:-1], -q.T)
            calls.append(first_draw)
            res = original(*args)
            if first_draw and calls.count(True) == 2:
                res.status, res.basis, res.message = 4, None, "Unknown"
            return res

        monkeypatch.setattr(finite, "linprog", second_fails)
        assert main(["pca-probe", "--n", "1", "--pi", "0.6", "--eps", "0.1",
                     "--C", "25", "--tech-draws", "2", "--objective-draws",
                     "4", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "# lp_failures = 1" in out.splitlines()
        assert "# lp_failure_statuses = Unknown: 1" in out.splitlines()
        assert data_rows(out)[1].split(",")[5] == "7"      # samples


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


class TestBlasThreads:
    """Every command names the thread count of scipy's OpenBLAS, on which
    results at N >= 200 depend."""

    def test_metadata_line_follows_the_environment(self):
        want = "1" if finite.blas_threads() != "unknown" else "unknown"
        proc = subprocess.run(CLI + ["critical-line", "--from", "1"],
                              capture_output=True, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        assert f"# blas_threads = {want}" in proc.stdout.splitlines()

    def test_every_command_writes_it(self, capsys):
        line = f"# blas_threads = {finite.blas_threads()}"
        for argv in (["saddle"], ["critical-line", "--from", "1"],
                     ["sweep", "--var", "pi", "--from", "0.6", "--to", "0.7",
                      "--points", "2"],
                     ["finite", "--C", "10", "--instances", "2"],
                     ["lp-fraction", "--C", "10", "--trials", "2"],
                     ["pca-probe", "--C", "10", "--tech-draws", "2",
                      "--objective-draws", "2"], ["validate"]):
            main(argv)
            assert line in capsys.readouterr().out.splitlines(), argv


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

    @pytest.mark.parametrize("command", SETTINGS)
    def test_settings_surface(self, command):
        # every setting of every subcommand, so a new one shows in SETTINGS
        subs = next(a for a in build_parser()._actions
                    if a.dest == "subcommand")
        got = {opt for action in subs.choices[command]._actions
               for opt in action.option_strings}
        assert sorted(got - {"-h", "--help"}) == SETTINGS[command].split()

    @pytest.mark.parametrize("command", SETTINGS)
    def test_no_tol_flag(self, command):
        # a root is accepted at the fixed replica._TOL, on every subcommand
        proc = run_cli(command, "--tol", "1e-8", check=False)
        assert proc.returncode == 2
        assert "--tol" in proc.stderr

    @pytest.mark.parametrize("args, flag", (
        (("sweep", "--fix", "pi-over-n=0.4"), "--fix"),
        (("lp-fraction", "--f", "0.9"), "--f"),
        (("pca-probe", "--f", "0.9"), "--f"),
        (("pca-probe", "--tech", "3"), "--tech"),
    ))
    def test_removed_flags_exit_2(self, args, flag):
        # the ratios of --var i are typed flags, the LP commands take no f,
        # and no abbreviation stands in for a flag
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "unrecognized arguments: " + flag in proc.stderr

    @pytest.mark.parametrize("command", ("lp-fraction", "pca-probe"))
    def test_no_workers_flag(self, command):
        # the pi-grid pool is sized from the machine, not from a flag
        proc = run_cli(command, "--workers", "2", check=False)
        assert proc.returncode == 2
        assert "--workers" in proc.stderr

    @pytest.mark.parametrize("recipe", FIGURES, ids=lambda p: p.stem)
    def test_config_file_is_its_flags(self, recipe):
        # each key = value line parses as the flag of that destination
        command = re.search(r"randecon (\S+) --config figures/" + recipe.name,
                            recipe.read_text()).group(1)
        flags = []
        for line in recipe.read_text().splitlines():
            if line and not line.startswith("#"):
                key, val = (part.strip() for part in line.split("=", 1))
                flag = {"start": "--from", "stop": "--to"}.get(
                    key, "--" + key.replace("_", "-"))
                flags += [flag, val]
        from_file = vars(parse_args([command, "--config", str(recipe)]))
        assert from_file.pop("config") == str(recipe)
        from_flags = vars(parse_args([command] + flags))
        assert from_flags.pop("config") is None
        assert from_file == from_flags

    def test_config_keys_and_precedence(self, tmp_path):
        # entries override their flags; '-' and '_' in a key are alike
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pi-over-n = 0.4\nstart = 0.1\n")
        args = parse_args(["sweep", "--pi-over-n", "0.2", "--f-over-n", "0.3",
                           "--from", "0.5", "--config", str(cfg)])
        assert (args.pi_over_n, args.f_over_n) == (0.4, 0.3)
        assert args.start == 0.1
        cfg.write_text("tech-draws = 3\nobjective_draws = 4\n")
        args = parse_args(["pca-probe", "--tech-draws", "5",
                           "--config", str(cfg)])
        assert (args.tech_draws, args.objective_draws) == (3, 4)

    @pytest.mark.parametrize("command, entry, message", (
        ("sweep", "pi_over_n = 0.4", "--f-over-n"),
        ("sweep", "fix = pi-over-n=0.4", "unknown config key: fix"),
        ("saddle", "format = xml", "invalid choice: 'xml'"),
        ("critical-line", "points = 1.5", "invalid int value: '1.5'"),
        ("saddle", "func = x", "unknown config key: func"),
    ))
    def test_bad_config_entry_exit_2(self, tmp_path, command, entry, message):
        cfg = tmp_path / "run.cfg"
        head = "var = i\nstart = 0.1\n" if command == "sweep" else ""
        cfg.write_text(head + entry + "\n")
        proc = run_cli(command, "--config", str(cfg), check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_params_exit_2(self):
        proc = run_cli("saddle", "--n", "-1", "--pi", "0.65", "--f", "0.5",
                       "--eps", "0.1", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("args, flag", (
        (("sweep", "--var", "n"), "--from"),
        (("critical-line",), "--from"),
        (("sweep", "--var", "n", "--points", "3", "--from", "1"), "--to"),
        (("lp-fraction", "--points", "3"), "--from"),
        (("pca-probe", "--points", "2", "--to", "0.5"), "--from"),
        (("pca-probe", "--to", "0.5"), "--from"),
        (("lp-fraction", "--to", "0.5"), "--from"),
        (("critical-line", "--from", "1", "--to", "2"), "--points"),
        (("sweep", "--var", "n", "--from", "1", "--to", "2"), "--points"),
        (("lp-fraction", "--from", "0.3", "--to", "0.5", "--points", "1"), "--points"),
        (("pca-probe", "--from", "0.3", "--to", "0.5"), "--points"),
    ))
    def test_missing_grid_end_exit_2(self, args, flag):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and flag in proc.stderr
        assert "Traceback" not in proc.stderr
