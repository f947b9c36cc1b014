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
    discrete local maximum, refined by a Brent search.  The returned
    residual is |B| at (xi, pi_c).
    """
    if n <= 0 or eps <= 0:
        raise DomainError("n and eps must be positive")
    grid = np.linspace(-_XI_WINDOW, _XI_WINDOW, 2001)
    vals = _ratio(grid, n, eps)
    idx = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    if idx.size == 0:
        raise NoRootError("no interior local maximum of G/A in the xi window")
    best = int(idx[0])
    res = optimize.minimize_scalar(
        lambda x: -float(_ratio(x, n, eps)),
        bracket=(grid[best - 1], grid[best], grid[best + 1]),
        method="brent", options={"xtol": 1e-12})
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
