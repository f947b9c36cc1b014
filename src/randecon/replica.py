"""Saddle-point equations for the typical equilibrium of large random economies.

The thermodynamic limit reduces the N-dimensional utility maximization to
six coupled equations for the order parameters (Omega, kappa, p, sigma,
chi, chi_hat).  The representative scale of production is the truncated
Gaussian

    s*(t) = ((sigma t - p eps)/chi_hat) Theta(sigma t - p eps),

and the representative good solves  k chi u'(x*) = x* - a  with
a = x0 - kappa - sqrt(n Omega) t.  For log utility and chi > 0 the
final-good term is g = chi u'(x*) = x* - a = (sqrt(a^2 + 4 chi) - a)/2,
and x* g = chi; for k = 0 or chi = 0 x* clamps to a Theta(a).  Non-final
goods average in closed form; final goods on the Gauss-Hermite rule
_RULE, for the M averages here and for the observables; final_good_field
alone forms g on its nodes, free of cancellation on each side of a = 0.
Every residual below takes its M averages and scale-law moments from one
pass of _moments, with a single half_moment_lists call on the shifts of
both.

A residual works on 3-element shift vectors, 6-element coordinates and
the 2 x 120 final-good field, so most of its cost is the fixed cost of
numpy calls, not arithmetic.  The kernel therefore carries its scalars as
Python floats (to_u, _regular, and half_moment_lists for the I_n of the
three shifts), builds the field in place, and leaves to numpy only the
ufuncs (erfc, exp, the field's elementwise steps) and the @ products with
the endowment weights, whose bits a written-out sum does not keep.  An
elementwise IEEE operation gives the same bits on a float as in numpy,
so every residual has the bits of the same formulas evaluated on numpy
arrays (tests/test_kernel_bits.py keeps that form as the oracle).

The final-good quadrature, about half of a residual's cost when it runs,
reads only (kappa, n Omega, chi) and the rule, so _final_moments memoises
its moments for the last 16 such points.  Three of the six
forward-difference columns of each Jacobian step ell, gamma or delta (a
fourth, pi, in the bordered solves) and find them there.  The memo is
exact: a hit returns the read-only array the miss computed, and _moments
weighs it by the endowment classes as before, so every residual keeps its
bits.  The rule is in the key, by identity, because a rule swapped into
_RULE must never be served another rule's moments.

Both branches are solved as one regular system in
(Omega, kappa, ell, gamma, delta, chi) with ell = p chi, gamma = sigma chi
and delta = chi_hat chi (see regular_residual).  chi enters it only
through g, which tends to the clamp gap as chi -> 0, so chi = 0 is an
ordinary point.  There the first five equations are the rescaled chi = 0
system (rescaled_residual), independent of the final-good fraction f, and
the sixth, delta = n phi, holds only at the branch switch pi_s(n, eps).

* industrial: a root with chi > 0;
* collapsed: no root, and pi at or below the analytic boundary
  pi_c(n, eps) of critical.solve_critical_pi.  Below it every production
  process shuts down (s* = 0) and there are no order parameters: the
  label alone is the state.  branch_switch_pi walks the branch down to
  its chi = 0 end, the independent check of that boundary on this system.

Every root is found by Powell's hybrid method on this one system, in
coordinates scaled by eps (plain damped fixed-point iteration diverges:
the fixed-point map has an expanding eigendirection along
(Omega, kappa, chi)) and accepted on the residual hybr evaluated there.
A solve that establishes neither label raises NoConvergenceError; sweeps
use warm-started continuation and record such points as "failed".
_regular alone forms the equations: saddle_residual is it divided through
into the original variables, rescaled_residual its chi = 0 rows.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from . import critical
from .ensemble import EnsembleParams
from .errors import DomainError, NoConvergenceError, NoRootError
from .gaussian import gauss_hermite_rule, half_moment_lists, half_moments

#: the quadrature rule of every final-good average over t, read at call
#: time (tests swap it to check the resolution)
_RULE = gauss_hermite_rule(120)
#: the residual evaluations each root solve may spend
_BUDGET = 150
#: the residual norm (as in saddle_residual) at or below which a root is accepted
_TOL = 1e-10


@dataclass(frozen=True)
class OrderParams:
    """Order parameters of the industrial (chi > 0) branch."""

    Omega: float
    kappa: float
    p: float
    sigma: float
    chi: float
    chi_hat: float

    def as_array(self) -> np.ndarray:
        return np.array([self.Omega, self.kappa, self.p, self.sigma, self.chi, self.chi_hat])


@dataclass(frozen=True)
class SaddleSolution:
    params: EnsembleParams
    branch: str  # "industrial", "collapsed", or "failed" in a sweep
    op: Optional[OrderParams]  # None unless the branch is "industrial"
    residual_norm: float
    iterations: int
    #: which path settled the label: "warm", "cold 0", "cold 1" (the
    #: start that found the root), "anchor" (continued from _ANCHOR),
    #: "pi_c" (collapsed by the analytic boundary) or "failed"
    path: str


def _sqrt(x):
    """sqrt(x): a Python float where x > 0, else a numpy scalar, so that
    dividing by it gives inf or NaN (n Omega = 0), not an error."""
    return math.sqrt(x) if x > 0 else np.sqrt(x)


def psi_exploited(x0: float, kappa: float, n_omega: float) -> float:
    """Probability that a non-final good with endowment x0 is fully exploited."""
    return half_moments((kappa - x0) / np.sqrt(n_omega))[0]


def final_good_field(kappa: float, n_omega: float, chi: float, rule=None):
    """(rule, a, g): the final-good field on the nodes t of the rule
    (_RULE when None).

    a = x0 - kappa - sqrt(n Omega) t, one row per endowment class
    x0 in {0, 1}, and g = chi u'(x*) = x* - a for log utility.  With
    root = sqrt(a^2 + 4 chi), g = 2 chi/(root + a) where a > 0 and
    (root - a)/2 elsewhere: each form is free of cancellation on its side.
    Readers take x* = a + g where a > 0 and chi/g elsewhere (x* g = chi).
    For chi < 0 the radicand is cut at zero, which keeps the field finite
    for a solver that steps across chi = 0.

    root is built in one buffer, g is set to (root - a)/2 and overwritten
    by 2 chi/(root + a) where a > 0, so no value of the branch not taken is
    computed; elementwise the operations are those of the two-branch form.
    """
    rule = _RULE if rule is None else rule
    a = np.subtract.outer([0.0 - kappa, 1.0 - kappa], _sqrt(n_omega) * rule.nodes)
    root = a * a
    root += 4.0 * chi
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    g = root - a
    g *= 0.5
    root += a
    np.divide(2.0 * chi, root, out=g, where=a > 0)
    return rule, a, g


@functools.lru_cache(maxsize=16)
def _final_moments(kappa, n_omega, chi, rule):
    """The final-good moments [<g>, <g t>, <g^2>] on rule, one column per
    endowment class x0 in {0, 1}: a read-only 3x2 array, memoised.

    They read only (kappa, n Omega, chi) and the rule, so the difference
    columns of a Jacobian that step ell, gamma or delta (and pi, in the
    bordered solves) find them here.  The rule is keyed by identity and
    held by the cache, so its id is never reused while the entry lives.
    Keys that compare equal give the same moments: +-0.0 in kappa or
    n Omega give the same field, chi = 0 never gets here (_moments takes
    the closed form), and a NaN is unequal to every other key.
    """
    _, _, g = final_good_field(kappa, n_omega, chi, rule)
    t, wt = rule.nodes, rule.weights
    out = np.array([g @ wt, g @ (wt * t), (g * g) @ wt])
    out.flags.writeable = False
    return out


def _moments(omega, kappa, chi, scale, n, pi, f, eps):
    """(M1, Mt, M2, phi, <s*>, <s*^2>) at one point, in one pass.

    scale is (p, sigma, chi_hat), or (ell, gamma, delta) in regular
    coordinates.  One half_moments call takes all three shifts: the clamp
    classes (kappa - x0)/sqrt(n Omega), x0 in {0, 1}, and -p eps/sigma of
    s*.  Non-final goods (weight 1-f) take the closed-form clamp moments,
    final goods (weight f) quadratures over t of g = chi u'(x*) and of g t
    and g^2; at chi = 0 g is the clamp gap, so they close as well.  The
    shifts and the half moments (half_moment_lists) are Python floats, and
    so is sqrt(n Omega) unless n Omega <= 0 (_sqrt); each endowment average
    stays a 3x2 @ weights product, whose bits a written-out sum does not
    keep.
    """
    p, sigma, chi_hat = scale
    n_omega = n * omega
    w = _sqrt(n_omega)
    i0, i1, i2 = half_moment_lists([kappa / w, (kappa - 1.0) / w, -p * eps / sigma])
    weights = np.array([1.0 - pi, pi])
    m = (np.array([[w * i1[0], w * i1[1]], [w * i0[0], w * i0[1]],
                   [n_omega * i2[0], n_omega * i2[1]]]) @ weights).tolist()
    if f != 0 and chi != 0.0:
        final = _final_moments(kappa, n_omega, chi, _RULE) @ weights
        m = [f * x + (1.0 - f) * y for x, y in zip(final.tolist(), m)]
    r = sigma / chi_hat
    return (*m, i0[2], r * i1[2], r * r * i2[2])


def _regular(u, n, pi, f, eps):
    """regular_residual at u, a sequence of six floats, unchecked."""
    omega, kappa, ell, gamma, delta, chi = u
    m1, mt, m2, phi, s1, s2 = _moments(omega, kappa, chi, (ell, gamma, delta),
                                       n, pi, f, eps)
    return np.array([
        ell - m1,
        delta - mt / _sqrt(n * omega),
        gamma - math.sqrt(max(m2 - ell * ell, 0.0)),
        omega - s2,
        kappa - ell - n * eps * s1,
        delta - n * phi,
    ])


def regular_residual(u, params: EnsembleParams) -> np.ndarray:
    """Residuals of the six saddle-point equations in regular coordinates.

    u = (Omega, kappa, ell, gamma, delta, chi) with ell = p chi,
    gamma = sigma chi and delta = chi_hat chi.  The equations read

        ell = M1,  delta = Mt / sqrt(n Omega),  gamma = sqrt(M2 - ell^2),
        Omega = <s*^2>,  kappa = ell + n eps <s*>,  delta = n phi,

    and chi enters only through the final-good term of the M averages.
    Divided through by (chi, chi, chi, 1, 1, chi_hat) they are
    saddle_residual; at chi = 0 the first five are rescaled_residual.  A
    negative radicand in the gamma equation is cut at zero.
    """
    u = np.asarray(u, dtype=float)
    if min(u[0], u[3], u[4]) <= 0:
        raise DomainError("regular_residual requires Omega, gamma, delta > 0")
    return _regular(u.tolist(), params.n, params.pi, params.f, params.eps)


def _regular_coords(op: OrderParams) -> list:
    return [op.Omega, op.kappa, op.p * op.chi, op.sigma * op.chi,
            op.chi_hat * op.chi, op.chi]


def _original(r, chi, chi_hat):
    """A regular residual r divided through into the original equations."""
    return r / np.array([chi, chi, chi, 1.0, 1.0, chi_hat])


def saddle_residual(op: OrderParams, params: EnsembleParams) -> np.ndarray:
    """Residuals of the six saddle-point equations in (p, sigma, chi_hat):
    regular_residual at (Omega, kappa, p chi, sigma chi, chi_hat chi, chi)
    divided by (chi, chi, chi, 1, 1, chi_hat); zero at a solution."""
    if min(op.sigma, op.chi_hat, op.chi, op.Omega) <= 0:
        raise DomainError("saddle_residual requires Omega, sigma, chi, chi_hat > 0")
    return _original(_regular(_regular_coords(op), params.n, params.pi,
                              params.f, params.eps), op.chi, op.chi_hat)


def rescaled_residual(u, params: EnsembleParams) -> np.ndarray:
    """Residuals of the five chi = 0 equations (f drops out entirely).

    u = (Omega, kappa, ell, gamma, delta) with ell = p chi, gamma = sigma chi
    and delta = chi_hat chi, which stay finite as chi -> 0 while p, sigma
    and chi_hat diverge: the first five rows of regular_residual at chi = 0.
    """
    u = np.append(np.asarray(u, dtype=float), 0.0)
    if min(u[0], u[3], u[4]) <= 0:
        raise DomainError("rescaled_residual requires Omega, gamma, delta > 0")
    return _regular(u.tolist(), params.n, params.pi, params.f, params.eps)[:5]


# -- solver -------------------------------------------------------------------

#: solver coordinates: log Omega, eps kappa, eps ell, log gamma, log delta,
#: eps chi.  chi, kappa and ell grow like 1/eps past the peak of <s*>,
#: while Omega, gamma and delta stay O(1) and positive.  _Search.to_u
#: unpacks the same positions.
_LOG = np.array([True, False, False, True, True, False])

#: the cold starts have Omega = gamma = delta = 1 and kappa = ell = chi
#: at the scale of economies below the peak of <s*> (0.3) or past it
#: (1/eps, where chi, kappa and ell grow like 1/eps)
_START_SCALE = 0.3

#: where the root is continued from when no start reaches it directly:
#: the default point of the CLI, which the first start reaches at eps 0.1
#: and 0.01.  pi_c(n) falls with n, so the straight line in (log n, pi)
#: from it to a point above pi_c(n) stays above the critical line.  pi_c
#: decides the label before the anchor is tried, so only such points are
#: continued to.
_ANCHOR = (2.0, 0.65)

#: the walk down the branch in chi: step factor, jump to chi = 0 below
#: this fraction of the first chi, and the most steps any walk tries
_CHI_DOWN, _CHI_FLOOR = 0.1, 1e-5
_MAX_STEPS = 60
#: a continuation along a line gives up once its step falls below this
#: fraction of the line (a line to a collapsed point crosses pi_c)
_MIN_STEP = 1e-3


class _Search:
    """Root solves of the regular system at fixed (f, eps).

    Each solve is Powell's hybrid method with a finite-difference Jacobian
    and a budget of _BUDGET residual evaluations; ``evals`` counts the
    evaluations of every solve made.
    """

    def __init__(self, params: EnsembleParams):
        self.params = params
        self.scale = np.array([1.0, params.eps, params.eps, 1.0, 1.0, params.eps])
        self.evals = 0

    def to_u(self, z):
        """The regular coordinates of the solver point z, as a list of
        Python floats for _regular.  The three log coordinates are cut at
        +-700 (NaN stays NaN) and exponentiated by one np.exp call; the
        other three are divided by eps.  Their scale in to_z is 1 and
        eps, so this inverts it with the bits of a division by self.scale.
        """
        lo, k, ell, lg, ld, chi = np.asarray(z, dtype=float).tolist()
        omega, gamma, delta = np.exp(
            [min(max(v, -700.0), 700.0) for v in (lo, lg, ld)]).tolist()
        eps = self.params.eps
        return [omega, k / eps, ell / eps, gamma, delta, chi / eps]

    def to_z(self, u):
        z = np.asarray(u, dtype=float) * self.scale
        z[_LOG] = np.log(z[_LOG])
        return z

    def starts(self):
        return [self.to_z([1.0, k, k, 1.0, 1.0, k])
                for k in (_START_SCALE, 1.0 / self.params.eps)]

    def residual(self, z, n, pi):
        p = self.params
        self.evals += 1
        r = _regular(self.to_u(z), n, pi, p.f, p.eps)
        return r if all(map(math.isfinite, r.tolist())) else np.full(6, 1e10)

    def _root(self, fun, x0):
        """(x, fun(x)): hybr's last point and the residual it evaluated there."""
        with np.errstate(all="ignore"):
            sol = optimize.root(fun, x0, method="hybr",
                                options={"xtol": 1e-12, "maxfev": _BUDGET})
        return sol.x, sol.fun

    def industrial(self, z0, n, pi):
        """(z, op, norm) for a root with chi > 0, <s*> > 0 and the norm of
        hybr's residual there, as in saddle_residual, <= _TOL; or None."""
        z, r = self._root(lambda z: self.residual(z, n, pi), z0)
        omega, kappa, ell, gamma, delta, chi = self.to_u(z)
        if not chi > 0:
            return None
        chi_hat = delta / chi
        norm = float(np.linalg.norm(_original(r, chi, chi_hat)))
        # <s*> = I1(-p eps/sigma) sigma/chi_hat, and sigma/chi_hat > 0
        if not (norm <= _TOL and half_moments(-ell * self.params.eps / gamma)[1] > 0):
            return None
        return z, OrderParams(omega, kappa, ell / chi, gamma / chi, chi, chi_hat), norm

    def bordered(self, z0, pi0, chi):
        """(z, pi) for the branch point at fixed chi, pi the unknown, or None.

        At chi = 0 the equations keep a nearly flat direction, the overall
        scale of the rescaled state (they are exactly scale-free only as
        that scale vanishes), and the solve creeps along it with pi fixed;
        there a residual norm of sqrt(_TOL) is accepted, elsewhere _TOL."""
        zchi = chi * self.params.eps
        n = self.params.n

        def fun(w):
            *u, pi = w.tolist()
            return self.residual(u + [zchi], n, pi)

        w, r = self._root(fun, np.append(z0[:5], pi0))
        accept = _TOL if chi > 0 else np.sqrt(_TOL)
        if not np.linalg.norm(r) <= accept:
            return None
        return np.append(w[:5], zchi), float(w[5])

    def switch(self, z, pi):
        """The chi = 0 end (z, pi_s) of the branch through (z, pi), or None.

        chi is stepped down by _CHI_DOWN with pi as the unknown, each step
        retried shorter when it fails, and the last step goes to chi = 0."""
        eps = self.params.eps
        floor = z[5] / eps * _CHI_FLOOR
        ratio = _CHI_DOWN
        for _ in range(_MAX_STEPS):
            chi = z[5] / eps * ratio
            if chi < floor:
                return self.bordered(z, pi, 0.0)
            nxt = self.bordered(z, pi, chi)
            if nxt is None:
                ratio = np.sqrt(ratio)
            else:
                z, pi = nxt
        return None

    def along(self, z, start, end):
        """Continue the root z at start = (n, pi) to end = (n, pi) along the
        straight line in (log n, pi), with a secant predictor; a step grows
        by half on success and is halved on failure, down to _MIN_STEP.
        (z, op, norm) at end, or None."""
        (n0, pi0), (n1, pi1) = start, end
        s, h, prev = 0.0, 0.1, None
        for _ in range(_MAX_STEPS):
            s_try = min(s + h, 1.0)
            z0 = z if prev is None else z + (z - prev[0]) * (s_try - s) / (s - prev[1])
            at = end if s_try == 1.0 else (n0 * (n1 / n0) ** s_try, pi0 + s_try * (pi1 - pi0))
            found = self.industrial(z0, *at)
            if found is None:
                h /= 2.0
                if h < _MIN_STEP:
                    return None
                continue
            if s_try == 1.0:
                return found
            prev, z, s = (z, s), found[0], s_try
            h *= 1.5
        return None


def solve_saddle(params: EnsembleParams,
                 init: Optional[OrderParams] = None) -> SaddleSolution:
    """Solve the saddle-point equations at one parameter point.

    The regular system (see regular_residual) is solved from ``init``,
    then from the two cold starts.  A root with chi > 0, <s*> > 0 and
    residual_norm <= _TOL (1e-10) is labelled "industrial": the norm, as in
    saddle_residual, of the residual hybr evaluated at the root.
    Failing that, the analytic boundary pi_c(n, eps)
    (critical.solve_critical_pi) decides: pi <= pi_c is "collapsed", with
    no order parameters (op None) and residual 0; above it the root at
    (n, pi) = (2, 0.65) is continued to the requested point.  When pi_c
    does not exist (NoRootError), only the industrial search runs.
    ``path`` names the step that settled the label.  Each root solve may
    spend _BUDGET residual evaluations; ``iterations`` counts the
    evaluations of all of them.

    Raises NoConvergenceError when neither label is established: a point
    is never called collapsed for want of a root.
    """
    search = _Search(params)
    n, pi = params.n, params.pi
    starts = search.starts()
    tried = [] if init is None else [("warm", search.to_z(_regular_coords(init)))]
    for path, z0 in tried + [(f"cold {i}", z0) for i, z0 in enumerate(starts)]:
        found = search.industrial(z0, n, pi)
        if found is not None:
            return SaddleSolution(params, "industrial", *found[1:], search.evals,
                                  path)
    try:
        pi_c = critical.solve_critical_pi(n, params.eps).pi_c
    except NoRootError:
        pi_c = None
    if pi_c is not None and pi <= pi_c:
        return SaddleSolution(params, "collapsed", None, 0.0, search.evals,
                              "pi_c")
    for z0 in starts:
        anchor = search.industrial(z0, *_ANCHOR)
        if anchor is not None:
            found = search.along(anchor[0], _ANCHOR, (n, pi))
            if found is not None:
                return SaddleSolution(params, "industrial", *found[1:],
                                      search.evals, "anchor")
            break
    raise NoConvergenceError(
        f"no root at {params} after {search.evals} residual evaluations"
        + ("" if pi_c is None else f" (pi_c = {pi_c:.6g})"), search.evals)


def branch_switch_pi(n: float, eps: float, f: float = 0.5,
                     pi_start: float = 0.95) -> float:
    """The pi at which the industrial branch reaches chi = 0, at fixed (n, eps).

    The industrial root at pi_start is followed down in chi with pi as the
    unknown (the system bordered by pi), and the six regular equations are
    finally solved at chi = 0 for (Omega, kappa, ell, gamma, delta, pi).
    At chi = 0 the M averages take their closed forms, so the switch is
    independent of f.  Raises NoConvergenceError when pi_start has no
    industrial root or the walk does not reach chi = 0.
    """
    params = EnsembleParams(n=n, pi=pi_start, f=f, eps=eps)
    sol = solve_saddle(params)
    if sol.branch != "industrial":
        raise NoConvergenceError(f"no industrial solution at pi_start={pi_start}")
    search = _Search(params)
    switch = search.switch(search.to_z(_regular_coords(sol.op)), pi_start)
    if switch is None:
        raise NoConvergenceError(f"the branch from pi_start={pi_start} did not reach chi = 0")
    return switch[1]


def sweep(params_grid: Sequence[EnsembleParams]):
    """Warm-started continuation along an ordered parameter grid.

    One entry per grid point, in order; points whose solve raises
    NoConvergenceError are recorded, not skipped, as SaddleSolution with
    branch "failed", infinite residual and the evaluations spent.
    """
    out = []
    warm = None
    for params in params_grid:
        try:
            sol = solve_saddle(params, init=warm)
        except NoConvergenceError as exc:
            out.append(SaddleSolution(params, "failed", None, np.inf,
                                      exc.evaluations, "failed"))
            warm = None
            continue
        out.append(sol)
        warm = sol.op
    return out

