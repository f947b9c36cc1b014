"""Finite-size ground truth: single-instance equilibria and geometry probes.

Three numerical experiments on sampled economies:

* ``solve_equilibrium``: the consumer's concave program
  max_{s >= 0} sum_c k_c log(x0_c + (q^T s)_c), subject to nonnegative
  availability of every good, via Mehrotra's infeasible-start
  predictor-corrector primal-dual interior-point method, started from
  all-ones.  Shadow prices are the method's dual variables; the loop
  stops once the largest complementarity product, the stationarity and
  the availability residuals are at rounding level, and the prices are
  certified against the KKT conditions (zero profit, complementary
  slackness, Walras' law).  An LP runs only when the loop stalls or
  fails, to confirm that the feasible set has an empty interior.  Each
  iteration forms the reduced Hessian with BLAS dgemm, factors it with
  LAPACK dpotrf and solves with dpotrs twice, all called directly in the
  OpenBLAS that scipy bundles: this module's ``cho_factor`` and
  ``cho_solve`` pass scipy.linalg's flags and give its bits, without
  its array-API dispatch and finiteness checks.  At N~100 the result is
  bit-identical at any BLAS thread count; at N >= 200 it is
  reproducible only at a fixed thread count.
* ``lp_feasibility_fraction``: does the homogeneous cone
  {s >= 0 : (q^T s)_c >= 0 for non-primary c} contain more than the
  origin?  A bounded LP answers per instance; the fraction over trials
  estimates the probability, which drops from 1 to 0 across the
  critical line.  At a fixed seed the primary sets are nested in pi, so
  each trial's cone opens at one value of pi.  The module remembers, for
  the most recent scan line only, a bracket on that value per trial and
  the trial's last optimal basis.  It answers the trials the bracket
  settles without an LP or a draw, and starts every other trial's LP
  from that basis.
* ``pca_probe``: samples vertices of the full feasible polytope by
  maximizing random linear objectives, and measures the elongation of
  the sampled cloud by the top eigenvalue of its correlation matrix.
  The LPs of one technology draw share their matrix, so each starts from
  the optimal basis of the one before.

Every LP, the phase-one LP of ``solve_equilibrium`` included, goes
through this module's ``linprog``, a thin wrapper over the HiGHS binding
that scipy ships: the dense constraint matrix goes to HiGHS column by
column, and its simplex solves the LP with presolve and scaling off, on
a fresh solver object per call, so concurrent calls share no solver
state.  HiGHS chooses the primal simplex when the start basis is primal
feasible and the dual simplex otherwise.  Scaling is off because every
matrix here is at unit scale already (the entries of q are N(0, 1/C),
the other rows and columns 0/1), and equilibrating it only costs
simplex iterations.  A call may start from the optimal basis of an
earlier LP over a matrix of the same shape: restarting the simplex from
a nearby optimal basis is the standard way to re-solve LPs that share a
constraint matrix.  When the new LP relaxes the old one, as on an
ascending scan line, that basis stays primal feasible and the primal
simplex goes on from it; otherwise the dual simplex does.  The primal
simplex can stall on a degenerate vertex, so an LP that ends without an
optimum is solved again by the dual simplex from the slack basis.  An
optimum counts only when it also passes the bound and row check of
``scipy.optimize.linprog``, whose Python layer (option validation, a
sparse copy of the matrix, a loop over the basis) would cost about a
third of each LP.

The LPs of one call that do not depend on each other, those of the
unsettled trials of ``lp_feasibility_fraction`` and the chains of the
technology draws of ``pca_probe``, are shared out between the calling
thread and a process-wide pool of ``os.cpu_count() - 1`` helper threads
(``lp_threads`` counts both).  HiGHS releases the GIL while it solves,
so they run on every CPU.  Each LP reads and writes only its own trial's
bracket, and the results are combined in input order, so a call returns
the same record to the bit at any thread count.  The threads cost
memory: each helper gets its own malloc arena, which holds HiGHS's
working memory.  So the pool is created on first use and kept for the
life of the process, and after each shared-out call glibc's
``malloc_trim`` hands the arenas' free pages back, which the arenas
would otherwise keep (about 2.7 MB at N = C = 100).  On the ``lp-scan``
benchmark at 2 CPUs the peak RSS is then 2.7 % above the serial loop's,
against 4.1 % without the trim.  A call that needs fewer than two LPs,
and the phase-one LP of ``solve_equilibrium``, runs on the calling
thread alone.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as _highs

from .ensemble import (EconomyInstance, EnsembleParams, economy_draws,
                       sample_economy)
from .errors import DomainError, NoConvergenceError

#: production scales below this are treated as shut down
ACTIVE_THRESHOLD = 1e-4

#: stop rule of the primal-dual loop, in the infinity norm: every
#: complementarity product s_i z_i and w_c p_c, the stationarity residual
#: and the availability residual x0 + q^T s - w
_COMPLEMENTARITY_TOL = 1e-12
_STATIONARITY_TOL = 1e-7
_AVAILABILITY_TOL = 1e-12
_MAX_ITER = 100
#: fraction of the way to the boundary of the positive orthant taken per step
_STEP_FRACTION = 0.99
#: stall test: a loop that after this many iterations still carries more
#: than this fraction of its starting availability residual asks the
#: phase-one LP whether the feasible set has an interior at all.  Empty
#: interiors keep 1e-4 or more here; a feasible economy keeps that much
#: only when its interior is thin, and then the loop goes on
_STALL_ITER = 10
_STALL_LEFT = 1e-5
#: cycle guard: from iteration 2 * _STALL_ITER on, the floor of the
#: corrector's centring target, as a fraction of mu, when the largest
#: complementarity product has not fallen since the last iteration
_CYCLE_CENTRING = 0.3


@dataclass(frozen=True)
class EquilibriumSolution:
    s_star: np.ndarray = field(repr=False)   # (N,)
    x_star: np.ndarray = field(repr=False)   # (C,)
    duals: np.ndarray = field(repr=False)    # (C,) shadow prices
    objective: float
    kkt_residual: float                      # NaN when there is no KKT point
    status: str = "optimal"                  # or "infeasible" (utility -inf)
    newton_steps: int = 0                    # Cholesky factorisations, also
                                             # those before an empty interior
                                             # was confirmed

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.s_star > ACTIVE_THRESHOLD))


def _lp_options(strategy) -> _highs.HighsOptions:
    opts = _highs.HighsOptions()
    opts.solver = "simplex"
    opts.simplex_strategy = int(strategy)
    opts.presolve = "off"
    # no scaling: the matrices are at unit scale already (module docstring)
    opts.simplex_scale_strategy = 0
    opts.output_flag = False
    return opts


#: HiGHS settings of every LP: the primal simplex when the start basis is
#: primal feasible and the dual simplex otherwise, no presolve, no
#: scaling, no output; only read, never written, so concurrent calls can
#: share them
_LP_OPTIONS = _lp_options(
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyChoose)
#: the same with the dual simplex, for the one re-solve of an LP that
#: ended without an optimum
_DUAL_OPTIONS = _lp_options(
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
#: HiGHS's optimum must also satisfy the bounds and rows to this, as
#: scipy.optimize.linprog checks (10 sqrt(tol) at its tol = 1e-9)
_LP_TOL = 10.0 * math.sqrt(1e-9)
#: scipy.optimize.linprog's status codes of the HiGHS model statuses;
#: any other model status is 4
_LP_STATUS = {_highs.HighsModelStatus.kOptimal: 0,
              _highs.HighsModelStatus.kIterationLimit: 1,
              _highs.HighsModelStatus.kTimeLimit: 1,
              _highs.HighsModelStatus.kInfeasible: 2,
              _highs.HighsModelStatus.kUnbounded: 3}


def linprog(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
            lower, upper, basis=None) -> OptimizeResult:
    """Minimize c x subject to a_ub x <= b_ub and lower <= x <= upper.

    The dense (m, n) ``a_ub`` goes to HiGHS column by column, with every
    entry stored, and HiGHS solves it with presolve and scaling off, on a
    fresh solver object per call: by its primal simplex when the start
    basis is primal feasible, else by its dual simplex (Huangfu & Hall,
    *Math. Prog. Comp.* 2018).  ``lower`` and ``upper`` are scalars or
    length-n arrays; m may be 0, and an entry of ``b_ub`` may be +inf (a
    row without bound).  ``basis``, the ``basis`` of an earlier optimal
    result over a matrix of the same shape, starts the simplex there
    instead of at the slack basis; restarted from the optimal basis of a
    nearby LP over the same matrix, the simplex needs far fewer
    iterations.  An LP that ends without a valid optimum is solved once
    more, by the dual simplex from the slack basis, and that result
    stands.  Returns ``x``, ``fun``, ``status``, ``message`` and
    ``basis`` with ``scipy.optimize.linprog``'s status codes.  ``status``
    is 0 only when HiGHS reports an optimum and ``x`` is finite and within
    the bounds and rows to 10 sqrt(1e-9), the check ``linprog`` makes, so
    a NaN in the data gives a nonzero status, never 0.  ``x`` and ``fun``
    are None when HiGHS reports no optimum, and ``basis`` is None unless
    ``status`` is 0.
    """
    m, n = a_ub.shape
    # HiGHS reads n costs and bounds and m row bounds from the pointers
    if np.shape(c) != (n,) or np.shape(b_ub) != (m,):
        raise DomainError(f"linprog needs c of length {n} and b_ub of "
                          f"length {m} for a_ub of shape {a_ub.shape}")
    if basis is not None and (len(basis.col_status), len(basis.row_status)) != (n, m):
        raise DomainError(f"linprog needs a basis of {n} columns and {m} "
                          f"rows for a_ub of shape {a_ub.shape}")
    lower, upper = np.full(n, lower, dtype=float), np.full(n, upper, dtype=float)
    res = _highs_solve(_LP_OPTIONS, c, a_ub, b_ub, lower, upper, basis)
    if res.status != 0:
        # HiGHS's primal simplex can end on a degenerate vertex where
        # every basis change it tries is refused (model status "Unknown";
        # about 1 in 1,200 cold cone LPs at C = 30); the dual simplex from
        # the slack basis is the fallback
        res = _highs_solve(_DUAL_OPTIONS, c, a_ub, b_ub, lower, upper, None)
    return res


def _highs_solve(options, c, a_ub, b_ub, lower, upper,
                 basis) -> OptimizeResult:
    """``linprog``'s LP on a fresh HiGHS solver object with ``options``,
    from ``basis`` or the slack basis."""
    m, n = a_ub.shape
    solver = _highs._Highs()
    solver.passOptions(options)
    # HiGHS rejects NaN bounds itself, but loops without end on a NaN cost
    loaded = (np.isfinite(c).all() and np.isfinite(a_ub).all()
              and solver.passModel(
                  n, m, m * n, int(_highs.MatrixFormat.kColwise),
                  int(_highs.ObjSense.kMinimize), 0.0, c, lower, upper,
                  np.full(m, -np.inf), b_ub,
                  np.arange(n + 1, dtype=np.int32) * m,
                  np.tile(np.arange(m, dtype=np.int32), n),
                  a_ub.ravel(order="F"),
                  np.zeros(n, dtype=np.int32))      # every column continuous
              != _highs.HighsStatus.kError)
    if not loaded:
        return OptimizeResult(x=None, fun=None, status=4, basis=None,
                              message="non-finite data, or a model HiGHS "
                                      "rejects")
    if (basis is not None
            and solver.setBasis(basis) == _highs.HighsStatus.kError):
        raise DomainError("HiGHS rejects the basis as inconsistent")
    solver.run()
    model_status = solver.getModelStatus()
    message = solver.modelStatusToString(model_status)
    if model_status != _highs.HighsModelStatus.kOptimal:
        return OptimizeResult(x=None, fun=None, message=message, basis=None,
                              status=_LP_STATUS.get(model_status, 4))
    x = np.array(solver.getSolution().col_value)
    fun = solver.getInfo().objective_function_value
    valid = (math.isfinite(fun) and np.isfinite(x).all()
             and (x >= lower - _LP_TOL).all() and (x <= upper + _LP_TOL).all()
             and (a_ub @ x <= b_ub + _LP_TOL).all())
    if not valid:
        message = "HiGHS's optimum fails the bound and row check"
    return OptimizeResult(x=x, fun=fun, status=0 if valid else 4,
                          basis=solver.getBasis() if valid else None,
                          message=message)


def lp_threads() -> int:
    """Threads that share the independent LPs of one ``pca_probe`` or
    ``lp_feasibility_fraction`` call: the calling thread and one helper
    per further CPU."""
    return os.cpu_count() or 1


@functools.cache
def _helper_pool():
    """The process-wide pool of ``lp_threads() - 1`` helper threads,
    created on first use and never re-created: a thread started per call
    would build its malloc arena again on every call."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(lp_threads() - 1, thread_name_prefix="randecon-lp")


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, which hands the free pages of every malloc
    arena back to the system, or a no-op where the C library has none."""
    import ctypes
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0


def _map(fn, items: list) -> list:
    """[fn(item) for item in items], shared out between the calling thread
    and the helper pool; HiGHS releases the GIL while it solves.

    All threads take the next item from one iterator, and the results
    come back in input order.  An exception stops every thread from taking
    another item, and the one of the earliest item that raised is raised,
    as the serial loop would.  The caller works through the items itself
    and cancels the helpers that never started, so a busy pool, or one
    whose threads did not survive a fork, slows it down but never hangs
    it.  Fewer than two items never touch the pool.
    """
    helpers = min(lp_threads(), len(items)) - 1 if len(items) > 1 else 0
    if helpers < 1:
        return [fn(item) for item in items]
    results, errors = [None] * len(items), {}
    todo = enumerate(items)     # next() on it is atomic under the GIL

    def work():
        for i, item in todo:
            try:
                results[i] = fn(item)
            except BaseException as exc:    # handed to the caller
                errors[i] = exc
                for _ in todo:              # no thread takes another item
                    pass

    pool = _helper_pool()
    futures = [pool.submit(work) for _ in range(helpers)]
    work()
    for future in futures:
        if not future.cancel():
            future.result()     # a helper on its last item
    # the helpers' arenas would keep the pages of HiGHS's working memory
    # (about 2.7 MB at N = C = 100) for the life of the process; 15 us
    # when there is nothing to hand back
    _malloc_trim()(0)
    if errors:
        raise errors[min(errors)]
    return results


def _empty_interior(econ: EconomyInstance) -> bool:
    """Whether the feasible set has empty interior (a collapsed instance).

    The phase-one LP maximizes the smallest availability t <= 0.25 of
    x0 + q^T s over 0 <= s <= S; the interior is empty when t* <= 1e-7.
    """
    q, x0 = econ.q, econ.x0
    n_act, n_goods = q.shape
    s_cap = float(x0.sum()) / econ.eps + 1.0
    # variables (s_1..s_N, t); linprog minimizes, so objective is -t
    c = np.zeros(n_act + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-q.T, np.ones((n_goods, 1))])   # t - (q^T s)_c <= x0_c
    res = linprog(c, a_ub, x0, np.r_[np.zeros(n_act), -np.inf],
                  np.r_[np.full(n_act, s_cap), 0.25])
    if res.status != 0:
        raise NoConvergenceError(f"phase-one LP failed: {res.message}")
    return float(res.x[-1]) <= 1e-7


def _no_equilibrium(econ: EconomyInstance,
                    newton_steps: int) -> EquilibriumSolution:
    """The answer for a feasible set with empty interior: s* = 0 and,
    unless every final good is primary, utility -inf ("infeasible")."""
    x, k = econ.x0.copy(), econ.k.astype(bool)
    stuck = k & (x <= 0)
    return EquilibriumSolution(
        s_star=np.zeros(econ.N), x_star=x,
        duals=np.where(k & (x > 0), 1.0 / np.where(x > 0, x, 1.0), 0.0),
        objective=float("-inf") if stuck.any() else 0.0,
        kkt_residual=float("nan"),
        status="infeasible" if stuck.any() else "optimal",
        newton_steps=newton_steps)


def cho_factor(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of a symmetric positive definite float64 matrix.

    LAPACK's dpotrf with the flags ``scipy.linalg.cho_factor`` passes
    (upper triangle, lower one left as it was, ``a`` copied), so the
    factor is the same to the bit, without that wrapper's dispatch and
    finiteness check.  Returns ``(c, lower)`` for ``cho_solve``.  Raises
    ``np.linalg.LinAlgError`` when the factorisation fails; ``a`` is
    never written to.  A NaN or inf in ``a`` is not caught: the factor
    then holds NaN or inf.
    """
    c, info = dpotrf(a, lower=0, clean=0, overwrite_a=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info = {info}: "
                                    "not positive definite")
    return c, False


def cho_solve(c_and_lower: tuple[np.ndarray, bool],
              b: np.ndarray) -> np.ndarray:
    """Solution x of a x = b from ``cho_factor(a)``, by LAPACK's dpotrs."""
    c, lower = c_and_lower
    x, info = dpotrs(c, b, lower=lower, overwrite_b=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs failed with info = {info}")
    return x


def _max_step(val: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha <= 1 keeping every val + alpha * dv nonnegative."""
    ratio = np.full_like(val, np.inf)
    np.divide(-val, dv, out=ratio, where=dv < 0)
    return min(1.0, float(ratio.min()))


def solve_equilibrium(econ: EconomyInstance) -> EquilibriumSolution:
    """Equilibrium scales, availabilities and shadow prices of one instance.

    Maximizes sum_{c final} log x_c over s >= 0 with x = x0 + q^T s and
    the non-final availabilities x_c >= 0 by Mehrotra's infeasible-start
    predictor-corrector primal-dual method (Wright, *Primal-Dual
    Interior-Point Methods*, 1997, ch. 6).  The unknowns are s, its duals
    z, an availability slack w_c for every good and the prices p of the
    non-final goods; the availability residual x0 + q^T s - w is carried
    by the loop, so it starts from s = z = w = p = 1 with no feasible
    point in hand, and every step of length alpha removes the fraction
    alpha of that residual.  Final goods are priced 1/w_c (marginal log
    utility), non-final goods p_c.  Each iteration factors the reduced
    Hessian q D q^T + diag(z/s) once, with D_c = 1/w_c^2 for final goods
    and p_c/w_c for non-final goods, and solves with it twice (predictor,
    then centred corrector).  The loop stops when every complementarity
    product s_i z_i and w_c p_c is below 1e-12, the stationarity residual
    q (1/w_final, p) + z below 1e-7 and x0 + q^T s - w below 1e-12, each
    in the infinity norm.  The largest product, not the mean, is tested
    because a degenerate good (w_c and p_c both tending to 0) lags behind
    the mean and would keep a price far above zero.  From iteration 20 on,
    an iteration whose largest product has not fallen since the last one
    centres its corrector on at least 0.3 mu (_CYCLE_CENTRING), which
    breaks the cycle of two states that Mehrotra's heuristic can fall into.

    A feasible set with empty interior leaves the loop unable to remove
    its residual.  When more than 1e-5 of it is left after 10 iterations,
    or the loop fails (100 iterations, or a Hessian that is not positive
    definite), the phase-one LP decides: an empty interior means the
    economy cannot operate, s* = 0 and, unless every final good is
    primary, the utility is -inf (status "infeasible", ``kkt_residual``
    NaN).  Otherwise a stalled loop goes on and a failed one raises
    ``NoConvergenceError``.
    """
    q, k = econ.q, econ.k.astype(bool)
    if not k.any():
        # nothing enters the utility: s* = 0 is an admissible optimum
        x = econ.x0.copy()
        return EquilibriumSolution(
            s_star=np.zeros(econ.N), x_star=x, duals=np.zeros(econ.C),
            objective=0.0, kkt_residual=0.0, status="optimal")
    # integer positions of the final and non-final goods
    i_k, i_nf = np.flatnonzero(k), np.flatnonzero(~k)
    # the positive unknowns in one vector, so that one rule bounds the
    # step of all of them: s, z, the slacks w of every good and p; their
    # step dv has the same layout
    i_z, i_w, i_p = econ.N, 2 * econ.N, 2 * econ.N + econ.C
    v = np.ones(i_p + i_nf.size)
    s, z, w, p = v[:i_z], v[i_z:i_w], v[i_w:i_p], v[i_p:]
    dv = np.empty_like(v)
    ds, dz, dw, dp = dv[:i_z], dv[i_z:i_w], dv[i_w:i_p], dv[i_p:]
    m = s.size + p.size
    duals, weights = np.empty(econ.C), np.empty(econ.C)
    # dgemm's operands and its product in the column-major layout it
    # works in, so that no call copies them; with beta = 0 it never
    # reads the uninitialised product
    q_f = np.asfortranarray(q)
    qw = np.empty_like(q_f)
    hess = np.empty((econ.N, econ.N), order="F")
    hess_diag = hess.ravel(order="K")[::econ.N + 1]      # a view
    newton_steps = 0
    left = 1.0                    # share of the starting residual still left
    failure = None
    last_gap = math.inf
    for it in range(_MAX_ITER):
        x = econ.x0 + s @ q
        w_nf = w[i_nf]
        duals[i_k], duals[i_nf] = 1.0 / w[i_k], p
        r_dual = q @ duals + z                  # stationarity: z minus profit
        r_avail = x - w
        sz, wp = s * z, w_nf * p
        gap = max(float(sz.max()), float(wp.max(initial=0.0)))
        if (gap < _COMPLEMENTARITY_TOL
                and float(np.abs(r_dual).max()) < _STATIONARITY_TOL
                and float(np.abs(r_avail).max()) < _AVAILABILITY_TOL):
            break
        if it == _STALL_ITER and left > _STALL_LEFT and _empty_interior(econ):
            return _no_equilibrium(econ, newton_steps)
        weights[i_k], weights[i_nf] = duals[i_k] ** 2, p / w_nf
        # the Hessian, its factor and its solves all run in the OpenBLAS
        # that scipy bundles, called directly, not through numpy's @:
        # handing off between the two libraries' thread pools costs more
        # than the arithmetic (8.0 ms against 0.97 ms a step at N=200,
        # C=100 with two BLAS threads on 2 vCPUs)
        np.multiply(q_f, weights, out=qw)
        dgemm(1.0, qw, q_f, trans_b=True, c=hess, overwrite_c=True)
        hess_diag += z / s
        newton_steps += 1
        try:
            factor = cho_factor(hess)
        except np.linalg.LinAlgError:
            # rounding near the optimum: one retry with a tiny shift
            hess_diag += 1e-14 * float(hess_diag.max())
            newton_steps += 1
            try:
                factor = cho_factor(hess)
            except np.linalg.LinAlgError as exc:
                failure = f"primal-dual Hessian not positive definite: {exc}"
                break

        def direction(r_sz, r_wp):
            # the step goes into dv in place; the corrector's arguments
            # read the predictor's step before this overwrites it
            shift = weights * r_avail
            shift[i_nf] += r_wp / w_nf
            ds[:] = cho_solve(factor, r_dual - q @ shift - r_sz / s)
            dw[:] = ds @ q + r_avail
            dz[:] = -(r_sz + z * ds) / s
            dp[:] = -(r_wp + p * dw[i_nf]) / w_nf

        # predictor: the affine-scaling direction, aimed at zero products
        direction(sz, wp)
        alpha = _max_step(v, dv)
        mu = float(s @ z + w_nf @ p) / m
        mu_aff = float((s + alpha * ds) @ (z + alpha * dz)
                       + (w_nf + alpha * dw[i_nf]) @ (p + alpha * dp)) / m
        # corrector: centred on sigma mu with the second-order term; the
        # floor keeps the last step from overshooting far below the stop
        # rule, where the Hessian stops being positive definite
        target = max(min(1.0, mu_aff / mu) ** 3 * mu,
                     0.1 * _COMPLEMENTARITY_TOL)
        # late and not falling: held nearer the central path, which
        # breaks a cycle of two states
        if it >= 2 * _STALL_ITER and gap >= last_gap:
            target = max(target, _CYCLE_CENTRING * mu)
        last_gap = gap
        direction(sz + ds * dz - target, wp + dw[i_nf] * dp - target)
        alpha = _STEP_FRACTION * _max_step(v, dv)
        v += alpha * dv                         # moves s, z, w and p
        left *= 1.0 - alpha
    else:
        failure = (f"no convergence in {_MAX_ITER} iterations "
                   f"(largest complementarity product {gap:.1e})")
    if failure is not None:
        if _empty_interior(econ):
            return _no_equilibrium(econ, newton_steps)
        raise NoConvergenceError(f"primal-dual loop: {failure}")
    profits = q @ duals
    kkt = max(
        float(np.max(profits, initial=-np.inf)),          # dual feasibility
        float(np.max(np.abs(s * profits))),               # compl. slackness
        float(max(0.0, -x.min(), -s.min())),              # primal feasibility
    )
    objective = float(np.log(x[k]).sum())
    return EquilibriumSolution(s_star=s.copy(), x_star=x, duals=duals,
                               objective=objective, kkt_residual=kkt,
                               status="optimal", newton_steps=newton_steps)


#: relative tolerance of certify_equilibrium's price checks
_CERTIFY_TOL = 1e-6


def certify_equilibrium(econ: EconomyInstance, sol: EquilibriumSolution) -> dict:
    """Named KKT/accounting checks, each entry (value, passed).

    zero_profit: operating activities earn nothing; no activity earns a
    strictly positive profit.  walras: the value of total availability
    equals the value of endowments.  excess_supply: wasted non-final
    goods are free.  capacity: at most C activities operate, and total
    scale is bounded by (number of primary goods)/eps.  The five price
    checks pass at _CERTIFY_TOL = 1e-6, the first four relative to the
    norm of the prices.

    Only an optimum has prices to certify: a solution with any other
    status (an "infeasible" economy, whose utility is -inf) raises
    ``DomainError``.
    """
    if sol.status != "optimal":
        raise DomainError(f"cannot certify a solution with status "
                          f"{sol.status!r}: it has no equilibrium prices")
    q, x0, k = econ.q, econ.x0, econ.k.astype(bool)
    s, x, p = sol.s_star, sol.x_star, sol.duals
    scale = float(np.linalg.norm(p)) + 1e-300
    profits = q @ p
    checks = {}
    # Zero profit is asserted for activities clearly above the activity
    # threshold; interior-point bias makes the profit of a marginally
    # active activity (s ~ ACTIVE_THRESHOLD) indistinguishable from zero at
    # the solver's resolution, and complementary slackness below already
    # covers every activity at every scale.
    operating = s > 10.0 * ACTIVE_THRESHOLD
    zp = float(np.max(np.abs(profits[operating]), initial=0.0)) / scale
    checks["zero_profit"] = (zp, zp <= _CERTIFY_TOL)
    dual_feas = float(np.max(profits, initial=0.0)) / scale
    checks["no_positive_profit"] = (dual_feas, dual_feas <= _CERTIFY_TOL)
    cs = float(np.max(np.abs(s * profits), initial=0.0)) / scale
    checks["complementary_slackness"] = (cs, cs <= _CERTIFY_TOL)
    walras = abs(float(p @ x - p @ x0)) / scale
    checks["walras"] = (walras, walras <= _CERTIFY_TOL)
    wasted = (~k) & (x > 1e-6)
    es = float(np.max(p[wasted], initial=0.0))
    checks["excess_supply_free"] = (es, es <= _CERTIFY_TOL)
    checks["capacity"] = (sol.n_active, sol.n_active <= econ.C)
    total = float(s.sum())
    bound = float(x0.sum()) / econ.eps
    checks["scale_bound"] = (total, total <= bound + 1e-6)
    recon = float(np.max(np.abs(x - (x0 + s @ q))))
    checks["market_clearing"] = (recon, recon <= 1e-8)
    return checks


@dataclass(frozen=True)
class MonteCarloSummary:
    params: EnsembleParams
    C: int
    instances: int
    failures: int
    s_mean: float
    s_stderr: float
    phi: float
    phi_stderr: float
    x_mean: float
    x_stderr: float
    consumption: float
    consumption_stderr: float
    waste: float
    waste_stderr: float
    utility: float
    utility_stderr: float


def monte_carlo_observables(params: EnsembleParams, C: int, instances: int,
                            base_seed: int) -> MonteCarloSummary:
    """Sample means and standard errors of the per-instance observables.

    Seeds are base_seed + index, so runs are reproducible and extensible.
    Utility is the equilibrium objective per final good (0 without final
    goods); an infeasible equilibrium (utility -inf) propagates -inf into
    the utility mean but is kept in the other statistics.
    """
    if instances < 2:
        raise DomainError("need at least two instances for a standard error")
    rows, failures = [], 0
    for idx in range(instances):
        econ = sample_economy(params, C, base_seed + idx)
        try:
            sol = solve_equilibrium(econ)
        except NoConvergenceError:
            failures += 1
            continue
        n_final = int(econ.k.sum())
        util = sol.objective / n_final if n_final else 0.0
        rows.append((
            float(sol.s_star.mean()),
            float(np.mean(sol.s_star > ACTIVE_THRESHOLD)),
            float(sol.x_star.mean()),
            float(np.mean(econ.k * sol.x_star)),
            float(np.mean((1 - econ.k) * sol.x_star)),
            util,
        ))
    if len(rows) < 2:
        raise NoConvergenceError(f"only {len(rows)} instances solved")
    data = np.array(rows)
    # -inf utilities make the mean -inf and the spread NaN; both are the
    # documented sentinel values, so the arithmetic warnings are noise
    with np.errstate(invalid="ignore"):
        mean = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / np.sqrt(len(rows))
    return MonteCarloSummary(
        params=params, C=C, instances=instances, failures=failures,
        s_mean=mean[0], s_stderr=stderr[0],
        phi=mean[1], phi_stderr=stderr[1],
        x_mean=mean[2], x_stderr=stderr[2],
        consumption=mean[3], consumption_stderr=stderr[3],
        waste=mean[4], waste_stderr=stderr[4],
        utility=mean[5], utility_stderr=stderr[5])


@dataclass(frozen=True)
class FeasibilityRecord:
    n: float
    pi: float
    eps: float
    N: int
    trials: int
    feasible_count: int
    lps: int                  # LPs solved; the other trials were bracketed
    failure_statuses: tuple[str, ...] = ()   # ``linprog`` message of each
                                             # LP with a nonzero status

    @property
    def failures(self) -> int:
        return len(self.failure_statuses)

    @property
    def fraction(self) -> float:
        return self.feasible_count / self.trials


#: a trial's cone is open when its LP optimum sum_i s_i exceeds this
_OPEN_CONE = 1e-6
#: the bracket of a trial no LP of the line has answered yet
_UNKNOWN = (-math.inf, math.inf, None)


@functools.lru_cache(maxsize=1)
def _brackets(N: int, C: int, eps: float, base_seed: int) -> dict:
    """The cone brackets of one scan line, {trial index: (largest pi known
    shut, pi above which the cone is known open, optimal basis of the
    trial's last LP)}; the cache keeps one line."""
    return {}


def lp_feasibility_fraction(params: EnsembleParams, C: int, trials: int,
                            base_seed: int) -> FeasibilityRecord:
    """Fraction of instances whose homogeneous cone is nontrivial.

    Per trial: maximize sum_i s_i subject to (q^T s)_c >= 0 for every
    non-primary good c and 0 <= s_i <= 1.  The origin is always
    admissible, so the LP never fails for feasibility reasons; the trial
    counts as feasible when the optimum exceeds 1e-6 (``_OPEN_CONE``).
    The LP keeps a row for every good, with upper bound +inf on a
    primary good's row, so all LPs of one trial share the matrix -q^T.

    ``economy_draws`` gives q and the endowment uniforms u without reading
    pi or f, and good c is primary when u_c < pi.  So along one scan line
    (fixed N, C, eps and base seed) a trial's primary set grows with pi,
    its cone only widens, and the cone opens at a single primary count.
    With u_(j) the j-th smallest uniform, an LP that says shut at m
    primary goods settles every pi <= u_(m+1) as shut, and one that says
    open settles every pi > u_(m) as open.  The module keeps, for the most
    recent line only, a bracket per trial: the largest pi settled shut,
    the smallest pi above which it is settled open, and the optimal basis
    of the trial's last LP.  A trial whose bracket settles pi needs
    neither an LP nor a draw; any other trial solves the LP from that
    basis and tightens its bracket.  So a call never solves more LPs than
    trials, and every answer is an LP's or follows from one by
    monotonicity.  On an ascending scan each LP of a trial relaxes the one
    before, so the old optimal basis is primal feasible and HiGHS's primal
    simplex goes on from there.  A call on another line starts that line's
    brackets afresh, so repeating a scan over several lines costs every LP
    again.  When two or more trials need an LP, their LPs are shared out
    over ``lp_threads()`` threads; each writes only its own trial's
    bracket, so the record, ``lps`` included, is that of the serial loop.
    Calls made concurrently on one line may lose a bracket update, which
    costs an LP and never changes an answer.  A failed LP is counted, with
    its message in ``failure_statuses`` (in trial order), and not
    remembered.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    N = int(round(params.n * C))
    brackets = _brackets(N, C, params.eps, base_seed)
    pi, feasible, unsettled = params.pi, 0, []
    for idx in range(trials):
        shut, open_, basis = brackets.get(idx, _UNKNOWN)
        if pi <= shut:
            continue
        if pi > open_:
            feasible += 1
            continue
        unsettled.append((idx, basis))
    failed = []
    if unsettled:       # a settled call builds nothing more
        for res in _map(functools.partial(_cone_lp, params, C, base_seed,
                                          brackets), unsettled):
            if res.status != 0:
                failed.append(res.message)
            elif -res.fun > _OPEN_CONE:
                feasible += 1
    return FeasibilityRecord(n=params.n, pi=pi, eps=params.eps, N=N,
                             trials=trials, feasible_count=feasible,
                             lps=len(unsettled), failure_statuses=tuple(failed))


def _cone_lp(params: EnsembleParams, C: int, base_seed: int, brackets: dict,
             trial: tuple) -> OptimizeResult:
    """The cone LP of one (index, basis) trial at ``params.pi``, which
    tightens that trial's bracket, and only that one, when it succeeds."""
    idx, basis = trial
    q, u, _ = economy_draws(params, C, base_seed + idx)
    primary = u < params.pi
    res = linprog(-np.ones(q.shape[0]), -q.T, np.where(primary, np.inf, 0.0),
                  0.0, 1.0, basis)
    if res.status != 0:
        return res
    # edges[j] is u_(j), with u_(0) = -inf and u_(C+1) = +inf
    edges, m = np.r_[-np.inf, np.sort(u), np.inf], int(primary.sum())
    # re-read: a concurrent call on this line may have tightened it
    shut, open_, _ = brackets.get(idx, _UNKNOWN)
    if -res.fun > _OPEN_CONE:
        open_ = min(open_, edges[m])
    else:
        shut = max(shut, edges[m + 1])
    brackets[idx] = (shut, open_, res.basis)
    return res


@dataclass(frozen=True)
class GeometryRecord:
    n: float
    pi: float
    eps: float
    N: int
    C: int
    samples: int              # vertices in the clouds lambda_max averages over
    lambda_max: float
    collapsed: bool
    failure_statuses: tuple[str, ...] = ()   # ``linprog`` message of each
                                             # LP with a nonzero status,
                                             # so no vertex

    @property
    def lp_failures(self) -> int:
        return len(self.failure_statuses)

    @property
    def lambda_max_over_N(self) -> float:
        return self.lambda_max / self.N


def _top_eigenvalue(verts: np.ndarray) -> float:
    """Top eigenvalue of the coordinate correlation matrix of a vertex cloud.

    Zero-variance coordinates enter as uncorrelated unit-diagonal rows.
    """
    live = verts.std(axis=0) > 1e-12
    corr = np.eye(verts.shape[1])
    if live.sum() >= 2:
        corr[np.ix_(live, live)] = np.corrcoef(verts[:, live], rowvar=False)
    return float(np.linalg.eigvalsh(corr)[-1])


def pca_probe(params: EnsembleParams, C: int, n_tech_draws: int,
              n_objective_draws: int, base_seed: int) -> GeometryRecord:
    """Elongation of the feasible polytope via sampled vertices.

    For each technology draw, maximize ``n_objective_draws`` random
    nonnegative unit objectives over the full feasible set (endowments
    included, total scale capped by primary-count/eps), form the
    coordinate correlation matrix of the resulting vertex cloud, and
    take its top eigenvalue with a dense symmetric eigensolver; the reported
    lambda_max averages over technology draws.  The LPs of one technology
    draw share q and differ only in x0, the objective and the cap, so each
    starts from the optimal basis of the draw's last optimal LP.  The
    technology draws are shared out over ``lp_threads()`` threads, and
    lambda_max averages them in draw order, so its bits do not depend on
    the thread count.
    Zero-variance coordinates enter as uncorrelated unit-diagonal rows.
    An LP with a nonzero status adds no vertex and counts in
    ``lp_failures``, with its message in ``failure_statuses``.  A draw
    whose vertices are all at the origin is degenerate; if every draw is degenerate the probe reports NaN with the
    collapsed flag set.
    """
    if n_tech_draws < 2 or n_objective_draws < 2:
        raise DomainError("need at least two draws of each kind")
    draws = _map(functools.partial(_vertex_cloud, params, C, n_objective_draws),
                 [base_seed + 1000 * tech for tech in range(n_tech_draws)])
    lams, samples, failed = [], 0, []
    for verts, messages in draws:
        failed.extend(messages)
        if len(verts) < 2 or np.all(np.abs(verts) < 1e-12):
            continue
        lams.append(_top_eigenvalue(verts))
        samples += len(verts)
    return GeometryRecord(n=params.n, pi=params.pi, eps=params.eps,
                          N=int(round(params.n * C)), C=C, samples=samples,
                          lambda_max=float(np.mean(lams)) if lams else math.nan,
                          collapsed=not lams, failure_statuses=tuple(failed))


def _vertex_cloud(params: EnsembleParams, C: int, n_objective_draws: int,
                  seed: int) -> tuple[np.ndarray, list]:
    """The vertices of one technology draw of ``pca_probe``, one row per
    optimal LP, and the messages of its LPs that ended without one."""
    econ = sample_economy(params, C, seed)
    rng = np.random.default_rng(seed + 500)
    # availability of every good, then the cap on total scale
    a_ub = np.vstack([-econ.q.T, np.ones((1, econ.N))])
    vertices, failed, basis = [], [], None
    for _ in range(n_objective_draws):
        x0 = (rng.random(C) < params.pi).astype(float)
        obj = np.abs(rng.standard_normal(econ.N))
        obj /= np.linalg.norm(obj)
        cap = max(float(x0.sum()), 1.0) / params.eps
        res = linprog(-obj, a_ub, np.concatenate([x0, [cap]]), 0.0, np.inf,
                      basis)
        if res.status == 0:
            vertices.append(res.x)
            basis = res.basis
        else:
            failed.append(res.message)
    return np.array(vertices), failed
