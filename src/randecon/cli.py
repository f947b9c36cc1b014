"""Command-line front end: sweeps, figure-data reproduction, validation.

Subcommands
-----------
saddle         solve the saddle-point system at a single parameter point
sweep          warm-started continuation along a 1-d parameter grid
critical-line  analytic phase boundary pi_c over an n grid
finite         Monte Carlo equilibrium observables at finite size
lp-fraction    feasibility fraction of the homogeneous LP cone
pca-probe      elongation of the feasible polytope near the transition
validate       quick self-check suite; nonzero exit on any failure

Outputs are CSV with a '#'-prefixed metadata header (or JSON via
``--format json``).  Reruns with identical configuration and seeds are
byte-identical apart from the timestamp and wall-time lines and
lp-fraction's count of solved LPs (``lps``).  ``--config FILE`` reads
``key = value`` lines; each is parsed, after the command line, as the
subcommand's flag with that destination (``start`` for ``--from``,
``tech_draws`` or ``tech-draws`` for ``--tech-draws``), so file entries
win over flags.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import scipy

from . import __version__
from .ensemble import EnsembleParams, intermediate_sweep_map
from .errors import RandeconError
from .critical import critical_line_sweep
from .finite import (lp_feasibility_fraction, monte_carlo_observables,
                     pca_probe)
from .observables import observable_set
from .replica import solve_saddle, sweep

_EXIT_OK, _EXIT_PARTIAL, _EXIT_CONFIG = 0, 1, 2


def _emit(path, header_meta, columns, rows, fmt):
    """Write rows as CSV with '#' metadata header or as a JSON document."""
    out = open(path, "w") if path else sys.stdout
    try:
        if fmt == "json":
            json.dump({"meta": header_meta,
                       "columns": list(columns),
                       "rows": [list(r) for r in rows]}, out, indent=1,
                      default=lambda v: float(v)
                      if isinstance(v, np.floating) else str(v))
            out.write("\n")
        else:
            for key, val in header_meta.items():
                out.write(f"# {key} = {val}\n")
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt_cell(v) for v in row) + "\n")
    finally:
        if path:
            out.close()


def _fmt_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _meta(args, command, unread=()):
    # provenance, then every setting the run read: all but those in unread
    items = {"command": command, "version": __version__,
             "numpy": np.__version__, "scipy": scipy.__version__,
             "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
             "wall_s": round(time.perf_counter() - args.started, 3)}
    skip = {"func", "config", "started", *unread}
    for key, val in sorted(vars(args).items()):
        if key not in skip and val is not None:
            items[f"arg.{key}"] = val
    return items


def _params_from(args) -> EnsembleParams:
    return EnsembleParams(n=args.n, pi=args.pi, f=args.f, eps=args.eps)


def _lp_params(args, pi) -> EnsembleParams:
    # the LPs of lp-fraction and pca-probe never read the final goods k,
    # and sample_economy draws q and x0 before k, so any f gives the same
    # LPs: f is fixed
    return EnsembleParams(n=args.n, pi=float(pi), f=0.5, eps=args.eps)


# ---------------------------------------------------------------- subcommands

#: the saddle-point cells that open every saddle and sweep row
SOLUTION_COLUMNS = ("n", "pi", "f", "eps", "branch", "Omega", "kappa", "p",
                    "sigma", "chi", "chi_hat", "residual", "iters")


def _solution_rows(solutions, observables):
    """One row per solution: ``SOLUTION_COLUMNS``, then the named fields of
    its ``observable_set``.  A collapsed row has no order parameters and
    carries the fixed cells (0, 0, 0, 0, 0, nan): nothing operates, and
    chi_hat is scale-indeterminate as s* -> 0.  A failed row is NaN
    throughout."""
    rows = []
    for sol in solutions:
        pr = sol.params
        if sol.branch == "industrial":
            op = sol.op
            cells = [op.Omega, op.kappa, op.p, op.sigma, op.chi, op.chi_hat]
        elif sol.branch == "collapsed":
            cells = [0.0, 0.0, 0.0, 0.0, 0.0, np.nan]
        else:
            cells = [np.nan] * 6
        if sol.branch == "failed":
            obs = ["nan"] * len(observables)
        else:
            values = observable_set(sol)
            obs = [getattr(values, name) for name in observables]
        rows.append([pr.n, pr.pi, pr.f, pr.eps, sol.branch, *cells,
                     sol.residual_norm, sol.iterations, *obs])
    return rows


def _emit_solutions(args, command, solutions, observables, unread=()):
    rows = _solution_rows(solutions, observables)
    # the step that settled each label, with its count, in order of first
    # appearance (SaddleSolution.path)
    paths = Counter(sol.path for sol in solutions)
    meta = dict(_meta(args, command, unread),
                paths="; ".join(f"{p}: {n}" for p, n in paths.items()))
    _emit(args.output, meta, SOLUTION_COLUMNS + observables, rows, args.format)
    failed = any(sol.branch == "failed" for sol in solutions)
    return _EXIT_PARTIAL if failed else _EXIT_OK


def _cmd_saddle(args):
    # a one-point sweep: a solve that fails is a "failed" row, as in _cmd_sweep
    return _emit_solutions(args, "saddle",
                           sweep([_params_from(args)]),
                           ("phi", "s_mean", "x_mean", "utility"))


def _grid(args):
    if args.points < 1:
        raise RandeconError("points must be >= 1")
    if args.start is None:
        raise RandeconError("the grid needs --from (flag or config key start)")
    if args.points == 1:
        if args.stop not in (None, args.start):
            raise RandeconError("--to differs from --from, so the grid needs "
                                "--points > 1 (flag or config key points)")
        return [args.start]
    if args.stop is None:
        raise RandeconError(f"--points {args.points} needs --to "
                            "(flag or config key stop)")
    return list(np.linspace(args.start, args.stop, args.points))


def _cmd_sweep(args):
    if args.var is None:
        raise RandeconError("sweep needs --var (flag or config key)")
    for flag, ratio in (("--pi-over-n", args.pi_over_n),
                        ("--f-over-n", args.f_over_n)):
        if (ratio is None) == (args.var == "i"):
            raise RandeconError(
                f"--var i needs {flag} (flag or config key)" if ratio is None
                else f"{flag} is read only by --var i, not --var {args.var}")
    if args.var == "i":
        grid = [intermediate_sweep_map(args.f_over_n, args.pi_over_n, v,
                                       eps=args.eps) for v in _grid(args)]
        unread = ("n", "pi", "f")   # the ratios set all three
    else:
        grid = [_params_from(args).with_(**{args.var: v}) for v in _grid(args)]
        unread = (args.var,)
    return _emit_solutions(args, "sweep", sweep(grid),
                           ("phi", "s_mean", "x_mean", "x11", "x01", "x10",
                            "x00", "consumption", "waste", "utility"), unread)


def _cmd_critical_line(args):
    points = critical_line_sweep(_grid(args), args.eps)
    cols = ("n", "eps", "pi_c", "xi", "residual")
    rows = [(p.n, p.eps, p.pi_c, p.xi, p.residual) for p in points]
    failures = sum(1 for p in points if not np.isfinite(p.pi_c))
    _emit(args.output, _meta(args, "critical-line"), cols, rows, args.format)
    return _EXIT_PARTIAL if failures else _EXIT_OK


def _cmd_finite(args):
    params = _params_from(args)
    mc = monte_carlo_observables(params, args.C, args.instances, args.seed)
    cols = ("n", "pi", "f", "eps", "C", "instances", "failures",
            "s_mean", "s_stderr", "phi", "phi_stderr", "x_mean", "x_stderr",
            "consumption", "consumption_stderr", "waste", "waste_stderr",
            "utility", "utility_stderr")
    rows = [(params.n, params.pi, params.f, params.eps, mc.C, mc.instances,
             mc.failures, mc.s_mean, mc.s_stderr, mc.phi, mc.phi_stderr,
             mc.x_mean, mc.x_stderr, mc.consumption, mc.consumption_stderr,
             mc.waste, mc.waste_stderr, mc.utility, mc.utility_stderr)]
    _emit(args.output, _meta(args, "finite"), cols, rows, args.format)
    return _EXIT_PARTIAL if mc.failures else _EXIT_OK


def _run_pi_grid(args, one_point):
    """Shared pi-grid driver for lp-fraction and pca-probe: one thread per
    grid point up to the CPU count (HiGHS releases the GIL).  Returns the
    records and the settings left unread: pi, if there is a grid."""
    gridded = args.points > 1 or args.start is not None or args.stop is not None
    pis = _grid(args) if gridded else [args.pi]
    workers = min(len(pis), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_point, pis)), ("pi",) if gridded else ()


def _statuses(recs):
    """The messages of the failed LPs of some records, each with its count,
    in order of first appearance: "none" when no LP failed."""
    counts = Counter(s for r in recs for s in r.failure_statuses)
    return "; ".join(f"{s}: {n}" for s, n in counts.items()) or "none"


def _cmd_lp_fraction(args):
    def one(pi):
        return lp_feasibility_fraction(_lp_params(args, pi), args.C,
                                       args.trials, args.seed)
    recs, unread = _run_pi_grid(args, one)
    cols = ("n", "pi", "eps", "N", "trials", "feasible_count", "fraction")
    rows = [(r.n, r.pi, r.eps, r.N, r.trials, r.feasible_count, r.fraction)
            for r in recs]
    failures = sum(r.failures for r in recs)
    # LPs solved over the grid, each from its trial's last optimal basis;
    # the other trials were settled by the pi brackets that the scan line
    # keeps per trial, which the threads share, so the count varies with
    # their interleaving
    meta = dict(_meta(args, "lp-fraction", unread),
                lps=sum(r.lps for r in recs), lp_failures=failures,
                lp_failure_statuses=_statuses(recs))
    _emit(args.output, meta, cols, rows, args.format)
    return _EXIT_PARTIAL if failures else _EXIT_OK


def _cmd_pca_probe(args):
    def one(pi):
        return pca_probe(_lp_params(args, pi), args.C, args.tech_draws,
                         args.objective_draws, args.seed)
    recs, unread = _run_pi_grid(args, one)
    cols = ("n", "pi", "eps", "N", "C", "samples", "lambda_max",
            "lambda_max_over_N", "collapsed")
    rows = [(r.n, r.pi, r.eps, r.N, r.C, r.samples, r.lambda_max,
             r.lambda_max_over_N, r.collapsed) for r in recs]
    lp_failures = sum(r.lp_failures for r in recs)
    meta = dict(_meta(args, "pca-probe", unread), lp_failures=lp_failures,
                lp_failure_statuses=_statuses(recs))
    _emit(args.output, meta, cols, rows, args.format)
    failed = lp_failures or any(r.collapsed for r in recs)
    return _EXIT_PARTIAL if failed else _EXIT_OK


def _cmd_validate(args):
    """Quick self-check: a handful of cheap cross-module invariants."""
    from .critical import solve_critical_pi
    from .ensemble import sample_economy
    from .finite import certify_equilibrium, solve_equilibrium
    from .gaussian import half_moments
    from .replica import _RULE, branch_switch_pi

    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    t2 = _RULE.nodes ** 2
    check("quadrature <t^2> = 1", abs(_RULE.weights @ t2 - 1.0) < 1e-12)
    check("quadrature <t^4> = 3", abs(_RULE.weights @ t2 ** 2 - 3.0) < 1e-12)
    check("half-Gaussian I0(1) = Phi(1)",
          abs(half_moments(1.0)[0] - 0.5 * math.erfc(-1 / math.sqrt(2)))
          < 1e-12)
    params = EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)
    sol = solve_saddle(params)
    check("industrial solution at (n=2, pi=0.65)", sol.branch == "industrial")
    obs = observable_set(sol)
    check("consumption + waste = mean availability",
          abs(obs.consumption + obs.waste - obs.x_mean) < 1e-9)
    # the two legs of the phase boundary: industrial roots just above the
    # analytic pi_c, and the saddle branch's chi = 0 end against it
    for n in (0.5, 1.0, 2.0):
        pi_c = solve_critical_pi(n, params.eps).pi_c
        for gap in (0.1, 1e-3):
            got = sweep([params.with_(n=n, pi=pi_c + gap)])[0].branch
            check(f"industrial at pi_c + {gap:g} (n={n:g}, pi_c = {pi_c:.6f})",
                  got == "industrial")
        pi_s = branch_switch_pi(n, params.eps)
        check(f"branch switch within 1e-5 of pi_c at n={n:g}"
              f" ({pi_s:.6f} vs {pi_c:.6f})", abs(pi_s - pi_c) <= 1e-5)
    econ = sample_economy(params, 50, 4242)
    eq = solve_equilibrium(econ)
    certs = certify_equilibrium(econ, eq)
    for name, (val, ok) in certs.items():
        check(f"finite-N {name} ({val:.2e})"
              if isinstance(val, float) else f"finite-N {name} ({val})", ok)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return _EXIT_PARTIAL
    print("all checks passed")
    return _EXIT_OK


# -------------------------------------------------------------------- parsing

def _add_params(sub, pi_default=0.65, f=True):
    sub.add_argument("--n", type=float, default=2.0)
    sub.add_argument("--pi", type=float, default=pi_default)
    if f:
        sub.add_argument("--f", type=float, default=0.5)
    sub.add_argument("--eps", type=float, default=0.1)


def _add_io(sub):
    sub.add_argument("--output", "-o", default=None,
                     help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None,
                     help="key=value file with flag defaults")


def _add_grid(sub):
    sub.add_argument("--from", dest="start", type=float, default=None)
    sub.add_argument("--to", dest="stop", type=float, default=None)
    sub.add_argument("--points", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randecon",
        description="numerical laboratory for large random production economies")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # a flag is given in full: no abbreviation stands in for a setting
    add_parser = partial(subs.add_parser, allow_abbrev=False)

    p = add_parser("saddle", help="solve one saddle point")
    _add_params(p)
    _add_io(p)
    p.set_defaults(func=_cmd_saddle)

    p = add_parser("sweep", help="1-d parameter sweep with continuation")
    p.add_argument("--var", choices=("n", "pi", "f", "eps", "i"),
                   default=None)
    p.add_argument("--pi-over-n", type=float, default=None,
                   help="fixed pi/n of --var i")
    p.add_argument("--f-over-n", type=float, default=None,
                   help="fixed f/n of --var i")
    _add_grid(p)
    _add_params(p)
    _add_io(p)
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("critical-line", help="analytic phase boundary")
    p.add_argument("--eps", type=float, default=0.1)
    _add_grid(p)
    _add_io(p)
    p.set_defaults(func=_cmd_critical_line)

    p = add_parser("finite", help="Monte Carlo equilibrium observables")
    _add_params(p)
    p.add_argument("--C", type=int, default=50)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    _add_io(p)
    p.set_defaults(func=_cmd_finite)

    p = add_parser("lp-fraction", help="homogeneous-cone feasibility")
    _add_params(p, f=False)
    p.add_argument("--C", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    _add_grid(p)
    _add_io(p)
    p.set_defaults(func=_cmd_lp_fraction)

    p = add_parser("pca-probe", help="feasible-set elongation probe")
    _add_params(p, pi_default=0.4, f=False)
    p.add_argument("--C", type=int, default=100)
    p.add_argument("--tech-draws", type=int, default=10)
    p.add_argument("--objective-draws", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)
    _add_grid(p)
    _add_io(p)
    p.set_defaults(func=_cmd_pca_probe)

    p = add_parser("validate", help="quick invariant self-checks")
    p.set_defaults(func=_cmd_validate)

    return parser


def _config_flags(sub, path):
    """The ``key = value`` lines of a config file as ``--flag=value``
    arguments of the subcommand parser ``sub``."""
    flags = {action.dest: action.option_strings[0] for action in sub._actions
             if action.option_strings and action.dest not in ("help", "config")}
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in flags:
                raise RandeconError(f"unknown config key: {key}")
            out.append(f"{flags[key]}={val.strip()}")
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line, then again with the ``--config`` file's
    entries appended as flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        subs = next(a for a in parser._actions if a.dest == "subcommand")
        sub = subs.choices[args.subcommand]
        args = parser.parse_args(argv + _config_flags(sub, args.config))
    return args


def main(argv=None) -> int:
    started = time.perf_counter()    # for the wall_s metadata line
    try:
        args = parse_args(argv)
        args.started = started
        return args.func(args)
    except RandeconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
