"""Macroscopic observables derived from a converged saddle-point solution.

Everything here is a closed-form or one-dimensional-quadrature functional
of the order parameters: the fraction of operating activities, the
distribution of production scales, the availability laws of the four good
classes (final/non-final x primary/non-primary), the aggregate
consumption/waste split, and the utility per final good.  The final-good
averages (x11, x01 and the utility) are taken in one pass over
replica.final_good_field, the field the saddle moments are built on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleParams
from .errors import DomainError, NonFiniteError
from .gaussian import (erfc_half, half_moments, std_normal_pdf,
                       truncated_scale_moments)
from .replica import (OrderParams, SaddleSolution, final_good_field,
                      psi_exploited)

_SQRT2 = np.sqrt(2.0)


def active_fraction(op: OrderParams, eps: float) -> float:
    """Fraction of activities running at positive scale,
    phi = P(sigma t > p eps) for a standard Gaussian t."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    return float(erfc_half(eps * op.p / (_SQRT2 * op.sigma)))


def scale_density(s, op: OrderParams, eps: float):
    """Density of positive production scales (the atom 1 - phi at zero is
    not included; query it via active_fraction)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("scales are nonnegative")
    # s* = (sigma t - p eps)/chi_hat on t > p eps / sigma: a truncated
    # Gaussian in disguise
    return (op.chi_hat / op.sigma) * std_normal_pdf(
        (op.chi_hat * s + eps * op.p) / op.sigma)


def mean_scale(op: OrderParams, eps: float) -> float:
    _, m1, _, _ = truncated_scale_moments(op.p, op.sigma, op.chi_hat, eps)
    return float(m1)


def goods_density(x, x0: int, k: int, op: OrderParams, params: EnsembleParams):
    """Availability law of a good of class (x0, k).

    Final goods (k = 1): a smooth density obtained from the Gaussian law
    of a = x0 - kappa - sqrt(n Omega) t through the change of variables
    x*(a), whose Jacobian is 1 - chi u''(x*) for log utility.  Non-final
    goods (k = 0): an atom of mass psi at zero ("fully exploited") plus
    the truncated Gaussian of positive availabilities.
    """
    x = np.asarray(x, dtype=float)
    w = np.sqrt(params.n * op.Omega)
    if k == 1:
        # invert x* (x* - a) = chi  =>  a = x - chi/x
        if np.any(x <= 0):
            raise DomainError("final-good availability is strictly positive")
        a = x - op.chi / x
        jac = 1.0 + op.chi / x**2          # da/dx = 1 - chi u''(x), u = log
        t = (x0 - op.kappa - a) / w
        return std_normal_pdf(t) * jac / w
    if np.any(x < 0):
        raise DomainError("availability is nonnegative")
    return std_normal_pdf((x - x0 + op.kappa) / w) / w


def goods_atom(x0: int, k: int, op: OrderParams, params: EnsembleParams) -> float:
    """Mass at zero of the availability law: psi for non-final goods, 0
    for final goods (the log-utility marginal is a barrier at zero)."""
    if k == 1:
        return 0.0
    return float(psi_exploited(x0, op.kappa, params.n * op.Omega))


@dataclass(frozen=True)
class ObservableSet:
    phi: float            # fraction of operating activities
    s_mean: float         # mean production scale
    x_mean: float         # mean availability over all goods
    x11: float            # conditional consumption, final & primary
    x01: float            # final & non-primary
    x10: float            # wasted availability, non-final & primary
    x00: float            # non-final & non-primary
    consumption: float    # X_C = f [pi x11 + (1-pi) x01]
    waste: float          # X_W = (1-f) [pi x10 + (1-pi) x00]
    utility: float        # <u(x*)> over final goods; -inf when they hit zero


def observable_set(sol: SaddleSolution) -> ObservableSet:
    """Observables of an industrial or collapsed solution.

    Industrial: x11 and x01 average x* and the utility averages log x*
    over the final-good field (a, g) of replica.final_good_field, by
    endowment class, with x* = a + g where a > 0 and x* = chi/g elsewhere
    (log utility gives x* g = chi): neither form cancels.  The non-final
    x10 and x00 have the closed form <max(a, 0)> = w I_1(b) with
    w = sqrt(n Omega), b = (x0 - kappa)/w.  Raises NonFiniteError when
    x* underflows to 0 at a quadrature node, so that log x* is -inf.

    In the collapsed state nothing operates: every good keeps its
    endowment, so (x11, x01, x10, x00) = (1, 0, 1, 0), and the log utility
    pi log(1) + (1 - pi) log(0) of final goods is -inf unless pi = 1.
    Any other branch (a "failed" sweep point) raises DomainError.
    """
    params = sol.params
    op = sol.op
    if sol.branch not in ("industrial", "collapsed"):
        raise DomainError(f"no observables for a solution with branch "
                          f"{sol.branch!r}: it has no order parameters")
    if sol.branch == "collapsed":
        x11, x01, x10, x00 = 1.0, 0.0, 1.0, 0.0
        phi, s1 = 0.0, 0.0
        x_mean = params.pi
        util = 0.0 if params.pi == 1.0 else float("-inf")
    else:
        n_omega = params.n * op.Omega
        with np.errstate(divide="ignore"):
            # at tiny chi the form np.where does not take may divide by zero
            rule, a, g = final_good_field(op.kappa, n_omega, op.chi)
            x = np.where(a > 0, a + g, op.chi / g)
            log_x = np.log(x)
        if not np.all(np.isfinite(log_x)):
            raise NonFiniteError("log x* is not finite at a quadrature node")
        # rows are the classes x0 = 0, 1
        x01, x11 = (float(np.dot(rule.weights, row)) for row in x)
        u01, u11 = (float(np.dot(rule.weights, row)) for row in log_x)
        w = np.sqrt(n_omega)
        x10, x00 = (float(w * half_moments((x0 - op.kappa) / w)[1])
                    for x0 in (1, 0))
        phi = active_fraction(op, params.eps)
        s1 = mean_scale(op, params.eps)
        x_mean = params.pi - params.n * params.eps * s1
        util = float(params.pi * u11 + (1.0 - params.pi) * u01)
    xc = params.f * (params.pi * x11 + (1.0 - params.pi) * x01)
    xw = (1.0 - params.f) * (params.pi * x10 + (1.0 - params.pi) * x00)
    return ObservableSet(phi=phi, s_mean=s1, x_mean=x_mean,
                         x11=x11, x01=x01, x10=x10, x00=x00,
                         consumption=xc, waste=xw, utility=util)
