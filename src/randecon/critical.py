"""Analytic phase boundary: where the homogeneous-constraint volume vanishes.

The log-volume of production scales compatible with the homogeneous
(non-primary-good) constraints concentrates, and its chi -> 0 limit can be
written as h_tilde = (c^2/2) * B(xi) with

    B = A - (1-pi) G,   A = 1 + xi^2/eps^2,
    G = (I2(-xi)/(n I0(-xi)^2)) * I2(t0),
    t0 = sqrt(n/I2(-xi)) * (xi*I0(-xi)/eps + eps*I1(-xi))

in terms of the half-Gaussian moments I_n.  The stationarity condition in
c at c != 0 is B = 0, and the critical fraction of primary goods pi_c(n)
is the largest pi for which min over xi of B reaches zero; at that point
dB/dxi = 0 as well.  A > 0 and G do not depend on pi, so B <= 0 somewhere
exactly when (1-pi) max G/A >= 1: pi_c = 1 - 1/max_xi G/A, one
maximisation in xi with no search in pi.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from .errors import DomainError, NonFiniteError, NoRootError
from .gaussian import half_moments

_XI_WINDOW = 10.0   # beyond |xi| ~ 10 the I_n underflow makes B meaningless
_I2_FLOOR = 1e-100
#: a discrete maximum of G/A on the xi grid counts only if it stands above
#: the lowest G/A to its left by more than this fraction of its value.  At
#: eps = 1 the two terms of t0 cancel, and the left tail of G/A is flat at
#: 1/(2n) down to rounding ripples, whose maxima stand less than 1e-11
#: above it; the well's maximum stands 0.08 or more above it (measured for
#: n in [0.01, 1e5] and eps in [1e-4, 1.5]).
_RIPPLE = 1e-6
#: points of the xi grid scanned for the maximum: a step of 0.01 and, only
#: where that finds none, 1e-4.  At isolated n the well's maximum and the
#: next minimum fall within one step of 0.01 (0.0022 apart at n = 5.62,
#: eps = 1), and the coarse grid sees G/A rise straight through them.  With
#: no well at all (eps 2 and 3) the fine scan finds none either
_SCANS = (2001, 200001)
#: grid points evaluated at once, so that the fine scan holds a hundredth
#: of its grid in memory
_BLOCK = 2001


@dataclass(frozen=True)
class CriticalPoint:
    n: float
    eps: float
    pi_c: float
    xi: float
    residual: float


def _ratio(xi, n, eps):
    """G/A = 1 - B/A at pi = 0, vectorised over xi; NaN where the moments
    underflow."""
    xi = np.asarray(xi, dtype=float)
    i0, i1, i2 = half_moments(-xi)
    ok = (i0 > _I2_FLOOR) & (i2 > _I2_FLOOR)
    i0, i2 = np.where(ok, i0, 1.0), np.where(ok, i2, 1.0)
    t0 = np.sqrt(n / i2) * (xi * i0 / eps + eps * i1)
    g = (i2 / i0**2) * half_moments(t0)[2] / n
    return np.where(ok, g / (1.0 + (xi / eps) ** 2), np.nan)


def _grid_block(points, lo, hi):
    """Points lo..hi-1 of np.linspace(-_XI_WINDOW, _XI_WINDOW, points), to
    the bit: i * step - _XI_WINDOW, and the last point _XI_WINDOW."""
    xi = np.arange(lo, hi, dtype=float) * (2.0 * _XI_WINDOW / (points - 1))
    xi -= _XI_WINDOW
    if hi == points:
        xi[-1] = _XI_WINDOW
    return xi


def _first_maximum(points, n, eps):
    """The leftmost discrete local maximum of G/A on the xi grid of
    ``points`` points that stands above the lowest value to its left (NaN
    skipped) by more than _RIPPLE of itself, as the grid points (left,
    maximum, right), or None.  The grid is evaluated in blocks of _BLOCK
    points; each block also holds the last two points of the one before,
    so every interior point is tested once with both neighbours, and the
    lowest value left of the block is carried over."""
    xi, vals, low = np.empty(0), np.empty(0), np.nan
    for lo in range(0, points, _BLOCK):
        block = _grid_block(points, lo, min(lo + _BLOCK, points))
        xi, vals = np.r_[xi[-2:], block], np.r_[vals[-2:], _ratio(block, n, eps)]
        # lows[j]: the lowest value left of vals[j]
        lows = np.fmin.accumulate(np.r_[low, vals[:-1]])
        idx = np.flatnonzero((vals[1:-1] > vals[:-2])
                             & (vals[1:-1] >= vals[2:])) + 1
        tall = vals[idx] - lows[idx] > _RIPPLE * np.abs(vals[idx])
        if tall.any():
            best = int(idx[tall][0])
            return xi[best - 1:best + 2]
        low = lows[-2]
    return None


def bracket_B(xi: float, pi: float, n: float, eps: float) -> float:
    """The two-variable reduction B(xi; pi, n, eps) of the rescaled log-volume."""
    if n <= 0 or eps <= 0:
        raise DomainError("n and eps must be positive")
    ratio = float(_ratio(xi, n, eps))
    if np.isnan(ratio):
        raise NonFiniteError(f"half-Gaussian moments underflow at xi={xi}")
    return (1.0 + (xi / eps) ** 2) * (1.0 - (1.0 - pi) * ratio)


def solve_critical_pi(n: float, eps: float) -> CriticalPoint:
    """Critical primary-good fraction pi_c(n; eps) with its stationary xi.

    G/A also grows without bound along a spurious large-xi branch where
    the moment ratio I2/I0^2 blows up; the physical stationary point is
    the maximum of the well around xi = 0, so a scan takes the leftmost
    discrete local maximum that rises above rounding (_RIPPLE), on a grid
    of step 0.01 or, where that shows none, of step 1e-4 (_SCANS), refined
    by a Brent search.  The returned residual is |B| at (xi, pi_c).  Raises
    NoRootError when the scan or the search finds no maximum.
    """
    if n <= 0 or eps <= 0:
        raise DomainError("n and eps must be positive")
    for points in _SCANS:
        bracket = _first_maximum(points, n, eps)
        if bracket is not None:
            break
    else:
        raise NoRootError("no interior local maximum of G/A in the xi window")
    try:
        res = optimize.minimize_scalar(
            lambda x: -float(_ratio(x, n, eps)), bracket=tuple(bracket),
            method="brent", options={"xtol": 1e-12})
    except ValueError as exc:   # a tie with the right neighbour: no bracket
        raise NoRootError(f"no bracket of the maximum of G/A at "
                          f"xi = {bracket[1]}: {exc}") from exc
    pi_c = 1.0 - 1.0 / -float(res.fun)
    if pi_c < 0:
        raise NoRootError(f"volume never vanishes at n={n}: B > 0 even at pi=0")
    xi = float(res.x)
    return CriticalPoint(n=n, eps=eps, pi_c=pi_c, xi=xi,
                         residual=abs(bracket_B(xi, pi_c, n, eps)))


def critical_line_sweep(n_grid: Sequence[float], eps: float):
    """pi_c along an n grid.  Points where the volume never vanishes
    (NoRootError) are recorded with pi_c = NaN rather than skipped."""
    out = []
    for n in n_grid:
        try:
            out.append(solve_critical_pi(float(n), eps))
        except NoRootError:
            out.append(CriticalPoint(n=float(n), eps=eps, pi_c=float("nan"),
                                     xi=float("nan"), residual=float("inf")))
    return out
