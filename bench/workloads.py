"""The four benchmark workloads: inputs from a seed, the timed job, the checks.

Each workload makes its inputs from the seed alone (``make_inputs``), runs
them through the library's public functions (``run_job``) and checks the
outputs afterwards (``check``), outside every timed region.  Library
functions are looked up on their modules at call time (``replica.sweep``,
not ``randecon.sweep``), so the tracer in ``tracing.py`` sees the calls the
benchmark makes as well as the calls the library makes internally.

A job returns a list of ``Record``s.  Records with ``unit=True`` are the
workload's unit calls, whose latencies give ``call_p50_ms`` and
``call_tail_ms``; the others (critical-line points, ``branch_switch_pi``,
``pca_probe``) belong to the job and count towards ``wall_s`` and the
checks only.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from randecon import critical, ensemble, finite, observables, replica
from randecon.ensemble import EnsembleParams

SADDLE_TOL = 1e-10        # solve_saddle default
IDENTITY_TOL = 1e-9       # consumption + waste = x_mean
ORACLE_BAND = 0.02        # no phase claim within this distance of pi_c
SWITCH_TOL = 0.01         # branch_switch_pi against pi_c (acceptance criterion 5)


@dataclass
class Record:
    """One timed operation of a job and what it returned."""

    kind: str
    args: dict
    seconds: float
    unit: bool
    result: object = None
    error: str = ""
    start: float = 0.0       # perf_counter when the operation began


@dataclass
class Failure:
    """Why a record failed.

    ``invariant`` failures break a guarantee the program makes for every
    answer it returns (the residual of an industrial root, an exact
    identity, a monotone count) and make the run incorrect.  The others
    are answers the program can get wrong today and sometimes does: a call
    that raised or reported failure, a failed KKT certificate or LP status,
    a phase label or branch switch that disagrees with the analytic pi_c."""

    record: Record
    reason: str
    invariant: bool


@dataclass
class Oracle:
    """pi_c(n, eps) from solve_critical_pi, cached, computed untimed."""

    cache: dict = field(default_factory=dict)

    def pi_c(self, n, eps):
        key = (n, eps)
        if key not in self.cache:
            self.cache[key] = critical.solve_critical_pi(n, eps).pi_c
        return self.cache[key]


def _timed(records, kind, args, unit, fn):
    t0 = time.perf_counter()
    try:
        result, error = fn(), ""
    except Exception as exc:  # a raising call is a failed call, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    records.append(Record(kind, args, time.perf_counter() - t0, unit, result, error, t0))
    return records[-1]


class _StampedGrid(list):
    """A grid that records when its callee starts and finishes each element.

    ``sweep`` and ``critical_line_sweep`` solve one point per iteration
    step, so the intervals between steps are the per-point latencies of a
    single warm-started call, measured without touching the library.
    ``pause`` runs after each element, outside every interval."""

    def __init__(self, items, pause):
        super().__init__(items)
        self.pause = pause
        self.spans = []

    def __iter__(self):
        self.spans = []
        start = time.perf_counter()
        for item in list.__iter__(self):
            yield item
            self.spans.append((start, time.perf_counter()))
            self.pause()
            start = time.perf_counter()

    def intervals(self, t0, t1):
        if len(self.spans) == len(self):
            return self.spans
        # the callee raised part-way: share its time out evenly
        edges = np.linspace(t0, t1, len(self) + 1)
        return list(zip(edges[:-1], edges[1:]))


def _spread(main, extra):
    """The items of ``main`` with those of ``extra`` spaced evenly among them.

    Timings on a shared machine drift over seconds; spreading a job's few
    expensive calls through its many cheap ones makes the cheap calls
    sample the whole run instead of one stretch of it."""
    keyed = ([((j + 0.5) / len(main), 0, x) for j, x in enumerate(main)]
             + [((i + 0.5) / len(extra), 1, x) for i, x in enumerate(extra)])
    return [x for *_, x in sorted(keyed, key=lambda t: t[:2])]


def _strata(rng, lo, hi, k):
    """k points in [lo, hi], one drawn uniformly in each of k equal strata."""
    return list(lo + (hi - lo) / k * (np.arange(k) + rng.uniform(0, 1, k)))


# -- saddle-cold ----------------------------------------------------------------

# Fixed points (eps, n, pi) straddling pi_c(n, eps).  The first five cost a
# full multi-start search that ends with "collapsed", about 2.5 s each: one
# lies below pi_c, and four lie above it, where the cold solve runs out of
# starts (n = 8 and n = 2 at eps = 0.1; n = 3 and n = 6 at eps = 0.01).  The
# other fourteen are roots found after several starts, at 120-250 ms each,
# so that call_tail_ms, the latency with 10 calls above it, falls among
# them and not at the edge between them and the misses.  The seed does not
# move these points: a cold solve's cost jumps with the start that happens
# to converge, so a moved point would change the mix of cheap and
# expensive calls.
_COLD_FIXED = (
    (0.1, 0.75, 0.2), (0.1, 8.0, 0.65), (0.1, 2.0, 0.1), (0.01, 3.0, 0.5),
    (0.01, 6.0, 0.35),
    (0.1, 3.0, 0.1), (0.1, 4.0, 0.65), (0.1, 6.0, 0.2), (0.1, 6.0, 0.35),
    (0.1, 6.0, 0.5), (0.1, 6.0, 0.8), (0.1, 8.0, 0.35), (0.1, 0.75, 0.5),
    (0.1, 0.5, 0.65), (0.1, 3.0, 0.8), (0.01, 2.0, 0.1), (0.01, 2.0, 0.2),
    (0.01, 2.0, 0.35), (0.01, 1.0, 0.35),
)
# Seeded points: drawn from the region where the first start converges in
# 20-35 ms at both eps (n in [1, 1.5], pi in [0.6, 0.85]), one per cell of a
# 4 x 6 grid per eps.  Each row of cells shares its n, so the untimed
# pi_c oracle is solved once per row.
_COLD_REGION = ((1.0, 1.5), (0.6, 0.85), (4, 6))


def _cells(rng, region):
    (n_lo, n_hi), (pi_lo, pi_hi), (k_n, k_pi) = region
    for i in range(k_n):
        n = n_lo + (n_hi - n_lo) * (i + rng.uniform()) / k_n
        for j in range(k_pi):
            yield n, pi_lo + (pi_hi - pi_lo) * (j + rng.uniform()) / k_pi


def saddle_cold_inputs(rng, tiny):
    if tiny:
        points = [(eps, 1.0, 0.8) for eps in (0.1, 0.01)]
    else:
        seeded = [(eps, n, pi) for eps in (0.1, 0.01) for n, pi in _cells(rng, _COLD_REGION)]
        points = _spread(seeded, _COLD_FIXED)
    return {"points": [EnsembleParams(n=float(n), pi=float(pi), f=0.5, eps=eps)
                       for eps, n, pi in points]}


def _saddle_call(params):
    sol = replica.solve_saddle(params)
    obs = observables.observable_set(sol) if sol.branch != "failed" else None
    return sol, obs


def saddle_cold_job(inputs, pause):
    records = []
    for params in inputs["points"]:
        _timed(records, "solve_saddle", {"params": params}, True,
               lambda: _saddle_call(params))
        pause()
    return records


# -- saddle-sweep ---------------------------------------------------------------

# The n-lines of scale_peak_eps01.conf and scale_peak_eps001.conf (pi = 0.65,
# f = 0.5).  The eps = 0.01 line keeps the recipe's step of 0.1 and stops at
# n = 2.1: from n = 2 on the continuation has lost the branch and every
# further point costs a cold miss of ~2.5 s, so the line ends after two of
# them.  Its grid is fixed, so each seed meets the same number of misses;
# the seed moves the eps = 0.1 line and the critical-line grids.  Each
# line is one sweep: a sweep starts cold, and every extra cold start would
# add a call whose cost jumps with the seed.
_LINE_PI, _LINE_F = 0.65, 0.5


def _line(eps, grid):
    return ("sweep", [EnsembleParams(n=float(n), pi=_LINE_PI, f=_LINE_F, eps=eps)
                      for n in grid])


def saddle_sweep_inputs(rng, tiny):
    if tiny:
        line01 = [0.5, 1.0, 1.5]
        line001 = [0.5, 0.7, 0.9]
        crit_n = 2
    else:
        line01 = 0.5 + rng.uniform(0.0, 0.2) + 0.2 * np.arange(37)
        line001 = 0.5 + 0.1 * np.arange(17)
        crit_n = 8
    # the critical_line_*.conf range
    crit = [("critical", eps, _strata(rng, 0.25, 4.0, crit_n)) for eps in (0.1, 0.01)]
    switch = [] if tiny else [("switch", 2.0, 0.1)]
    return {"steps": [_line(0.1, line01), _line(0.01, line001)] + switch + crit}


def _sweep_step(records, pause, line):
    grid = _StampedGrid(line, pause)
    t0 = time.perf_counter()
    try:
        sols, error = replica.sweep(grid), ""
    except Exception as exc:
        sols, error = [None] * len(line), f"{type(exc).__name__}: {exc}"
    for params, sol, (start, end) in zip(line, sols, grid.intervals(t0, time.perf_counter())):
        if sol is None or sol.branch == "failed":
            records.append(Record("sweep", {"params": params}, end - start, True,
                                  (sol, None), error, start))
            continue
        rec = _timed(records, "sweep", {"params": params}, True,
                     lambda: (sol, observables.observable_set(sol)))
        rec.seconds += end - start
        rec.start = start


def _critical_step(records, pause, eps, n_grid):
    grid = _StampedGrid(n_grid, pause)
    t0 = time.perf_counter()
    try:
        points, error = critical.critical_line_sweep(grid, eps), ""
    except Exception as exc:
        points, error = [None] * len(n_grid), f"{type(exc).__name__}: {exc}"
    for n, cp, (start, end) in zip(n_grid, points, grid.intervals(t0, time.perf_counter())):
        records.append(Record("critical_line", {"n": n, "eps": eps}, end - start, False,
                              cp, error, start))


def saddle_sweep_job(inputs, pause):
    records = []
    for kind, *step in inputs["steps"]:
        if kind == "sweep":
            _sweep_step(records, pause, *step)
        elif kind == "critical":
            _critical_step(records, pause, *step)
        else:
            n, eps = step
            _timed(records, "branch_switch_pi", {"n": n, "eps": eps}, False,
                   lambda: replica.branch_switch_pi(n, eps))
            pause()
    return records


# -- equilibrium ----------------------------------------------------------------

# finite_size_check.conf: pi = 0.65, f = 0.5, eps = 0.1, N ~ 100 via
# C = round(100/n) for n in its loop; plus one instance at N = 200, where
# the barrier's Cholesky factorisations dominate.
_EQ_PARAMS = dict(pi=0.65, f=0.5, eps=0.1)
_EQ_NS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


def equilibrium_inputs(rng, tiny):
    if tiny:
        cases = [(2.0, 10), (2.0, 10)]
    else:
        # every stretch of the job sees the same mix of n; N = 200 sits mid-job
        cases = _spread([(n, round(100 / n)) for _ in range(6) for n in _EQ_NS], [(2.0, 100)])
    return {"instances": [(EnsembleParams(n=n, **_EQ_PARAMS), C, int(rng.integers(2**31)))
                          for n, C in cases]}


def _equilibrium_call(params, C, seed):
    econ = ensemble.sample_economy(params, C, seed)
    sol = finite.solve_equilibrium(econ)
    return sol, finite.certify_equilibrium(econ, sol)


def equilibrium_job(inputs, pause):
    records = []
    for params, C, seed in inputs["instances"]:
        _timed(records, "equilibrium", {"params": params, "C": C, "seed": seed}, True,
               lambda: _equilibrium_call(params, C, seed))
        pause()
    return records


# -- lp-scan --------------------------------------------------------------------

# feasible_fraction_*.conf: pi over [0.02, 0.80] at N ~ 100 (C = round(100/n)),
# 16 points per line and 10 trials per point instead of 40 and 100, one
# base seed per line so that the primary-good sets are nested in pi.
# elongation_probe.conf: n = 1, eps = 0.01, N = C = 100, pi over
# [0.29, 0.60], 3 points and 2 x 5 draws instead of 8 and 10 x 25.  The pi
# grids are fixed and the seed draws the economies: an LP's cost depends
# on pi, so seeded pi would change the job's cost from seed to seed.
_LP_LINES = ((1.0, 0.1), (2.0, 0.1), (1.0, 0.01), (2.0, 0.01))


def lp_scan_inputs(rng, tiny):
    if tiny:
        lines, n_pi, trials, C_of = _LP_LINES[:1], 3, 3, (lambda n: 20)
        pca_pis, draws, pca_C = [0.45], (2, 2), 20
    else:
        lines, n_pi, trials, C_of = _LP_LINES, 16, 10, (lambda n: round(100 / n))
        pca_pis, draws, pca_C = np.linspace(0.29, 0.60, 3), (2, 5), 100
    scans = []
    for n, eps in lines:
        base = int(rng.integers(2**31))
        scans.append([(EnsembleParams(n=n, pi=float(pi), f=0.5, eps=eps), C_of(n), trials, base)
                      for pi in np.linspace(0.02, 0.80, n_pi)])
    probes = [(EnsembleParams(n=1.0, pi=float(pi), f=0.5, eps=0.01), pca_C, *draws,
               int(rng.integers(2**31))) for pi in pca_pis]
    return {"scans": scans, "probes": probes}


def lp_scan_job(inputs, pause):
    records = []
    for line, scan in enumerate(inputs["scans"]):
        for params, C, trials, base in scan:
            _timed(records, "lp_feasibility_fraction",
                   {"params": params, "C": C, "line": line}, True,
                   lambda: finite.lp_feasibility_fraction(params, C, trials, base))
            pause()
    for params, C, tech, obj, seed in inputs["probes"]:
        _timed(records, "pca_probe", {"params": params, "C": C}, False,
               lambda: finite.pca_probe(params, C, tech, obj, seed))
        pause()
    return records


# -- checks ---------------------------------------------------------------------

def _check_saddle(rec, oracle):
    """Phase oracle, residual and the consumption + waste = x_mean identity."""
    sol, obs = rec.result
    params = rec.args["params"]
    if sol.branch == "failed":
        return [("solver reported branch 'failed'", False)]
    out = []
    pi_c = oracle.pi_c(params.n, params.eps)
    if abs(params.pi - pi_c) > ORACLE_BAND:
        expected = "industrial" if params.pi > pi_c else "collapsed"
        if sol.branch != expected:
            out.append((f"branch {sol.branch}, pi_c = {pi_c:.4f} says {expected}", False))
    if sol.branch == "industrial" and not sol.residual_norm <= SADDLE_TOL:
        out.append((f"residual {sol.residual_norm:.3g} > {SADDLE_TOL:g}", True))
    gap = abs(obs.consumption + obs.waste - obs.x_mean)
    if not gap <= IDENTITY_TOL:
        out.append((f"consumption + waste - x_mean = {gap:.3g}", True))
    return out


def _check_critical(rec, oracle):
    return [] if np.isfinite(rec.result.pi_c) else [("no pi_c found", False)]


def _check_switch(rec, oracle):
    pi_c = oracle.pi_c(rec.args["n"], rec.args["eps"])
    if abs(rec.result - pi_c) > SWITCH_TOL:
        return [(f"switch at {rec.result:.4f}, pi_c = {pi_c:.4f}", False)]
    return []


def _check_equilibrium(rec, oracle):
    sol, cert = rec.result
    bad = [name for name, (_, passed) in cert.items() if not passed]
    return [(f"certificate fails {', '.join(bad)}", False)] if bad else []


def _check_lp(rec, oracle):
    if rec.result.failures:
        return [(f"{rec.result.failures} LPs with nonzero status", False)]
    return []


def _check_pca(rec, oracle):
    return [("pca_probe record is collapsed", False)] if rec.result.collapsed else []


_CHECKS = {"solve_saddle": _check_saddle, "sweep": _check_saddle,
           "critical_line": _check_critical, "branch_switch_pi": _check_switch,
           "equilibrium": _check_equilibrium, "lp_feasibility_fraction": _check_lp,
           "pca_probe": _check_pca}


def check(records, oracle):
    """Failures of one job's records, in record order."""
    failures = []
    for rec in records:
        if rec.error:
            failures.append(Failure(rec, f"raised {rec.error}", False))
            continue
        failures.extend(Failure(rec, why, inv) for why, inv in _CHECKS[rec.kind](rec, oracle))
    # at a fixed base seed the primary-good sets are nested in pi, so the
    # feasible count along one scan line must not decrease
    last = {}
    for rec in records:
        if rec.kind == "lp_feasibility_fraction" and not rec.error:
            line, count = rec.args["line"], rec.result.feasible_count
            if count < last.get(line, 0):
                failures.append(Failure(rec, f"feasible_count fell to {count} "
                                             f"from {last[line]}", True))
            last[line] = max(count, last.get(line, 0))
    return failures


WORKLOADS = {
    "saddle-cold": (saddle_cold_inputs, saddle_cold_job),
    "saddle-sweep": (saddle_sweep_inputs, saddle_sweep_job),
    "equilibrium": (equilibrium_inputs, equilibrium_job),
    "lp-scan": (lp_scan_inputs, lp_scan_job),
}

#: the parts of speed.py's reference burst that each workload is timed against
SPEED_PARTS = {
    "saddle-cold": ("numpy",),
    "saddle-sweep": ("numpy",),
    "equilibrium": ("cholesky", "lp"),
    "lp-scan": ("lp",),
}


def make_inputs(workload, seed, tiny=False):
    return WORKLOADS[workload][0](np.random.default_rng(seed), tiny)


def run_job(workload, inputs, pause=lambda: None):
    """One job's records.  ``pause`` runs between calls, outside their timings."""
    return WORKLOADS[workload][1](inputs, pause)
