"""Gaussian-measure integrals used throughout the saddle-point machinery.

All averages ⟨.⟩ in this package are taken against the standard normal
measure  Dt = (2π)^(-1/2) exp(-t²/2) dt.  Two evaluation routes exist:

* closed forms built from the half-Gaussian moments

      I_0(x) = ⟨Θ(t + x)⟩          = (1/2) erfc(-x/√2)
      I_1(x) = ⟨Θ(t + x)(t + x)⟩   = x I_0(x) + pdf(x)
      I_2(x) = ⟨Θ(t + x)(t + x)²⟩  = (1 + x²) I_0(x) + x pdf(x)

  for everything with a clamp or a truncation: non-final goods, the
  production scales and the phase boundary.  half_moments returns all
  three of a shift, or of an array of shifts, from one erfc and one
  density evaluation; half_moment_lists does the same for a short list
  of shifts on Python floats, which is cheaper than numpy below a few
  elements.  The two write the formulas once each, in the same operation
  order, so they give the same bits (the tests pin them together);

* quadrature against a :class:`QuadratureRule`, standardized
  Gauss-Hermite, for the final-good averages, which have no closed form
  (replica.final_good_field evaluates their field on its nodes).

The test suite checks every closed form against adaptive quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import erfc

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)


def std_normal_pdf(x):
    """Standard normal density (1/√(2π)) exp(-x²/2)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def erfc_half(x):
    """(1/2) erfc(x); equals the upper-tail mass P(t > x√2)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x)
    return float(out) if out.ndim == 0 else out


def half_moments(x):
    """The half-Gaussian moments (I_0, I_1, I_2) of the shift x in one pass:
    Python floats for a scalar x (from half_moment_lists), arrays for an
    array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return tuple(m[0] for m in half_moment_lists([float(x)]))
    i0, pdf = erfc_half(x / -math.sqrt(2.0)), std_normal_pdf(x)
    return i0, x * i0 + pdf, (1.0 + x * x) * i0 + x * pdf


def half_moment_lists(shifts):
    """(I_0, I_1, I_2) of a short sequence of shifts, as three lists.

    One erfc and one exp call on the whole list; everything else is
    elementwise arithmetic on Python floats in half_moments' operation
    order, so each element has the bits of half_moments on that shift.
    """
    r = -math.sqrt(2.0)
    tails = erfc(np.array([x / r for x in shifts])).tolist()
    bells = np.exp(np.array([-0.5 * x * x for x in shifts])).tolist()
    i0, i1, i2 = [], [], []
    for x, tail, bell in zip(shifts, tails, bells):
        c, pdf = 0.5 * tail, bell / SQRT_2PI
        i0.append(c)
        i1.append(x * c + pdf)
        i2.append((1.0 + x * x) * c + x * pdf)
    return i0, i1, i2


def gauss_moment_I(order, x):
    """Half-Gaussian moment I_n(x) = ⟨Θ(t + x)(t + x)^n⟩ for n in {0, 1, 2}."""
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    return half_moments(x)[int(order)]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the expectation ⟨f(t)⟩ over a standard Gaussian.

    Weights sum to 1 (within 1e-12) so that ⟨f⟩ ≈ Σ w_i f(t_i).  A rule
    compares and hashes by identity (its array fields have no hash), so it
    can key a cache.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 for the Gaussian measure")


def gauss_hermite_rule(n_nodes: int = 120) -> QuadratureRule:
    """Standardized Gauss-Hermite rule: exact for polynomials up to degree 2n-1."""
    if n_nodes < 2:
        raise DomainError("need at least 2 nodes")
    x, w = hermgauss(n_nodes)
    return QuadratureRule(nodes=np.sqrt(2.0) * x, weights=w / np.sqrt(np.pi))


def truncated_scale_moments(p: float, sigma: float, chi_hat: float, eps: float):
    """Moments of the truncated-Gaussian scale law s*(t) = ((σt - pε)/χ̂) Θ(σt - pε).

    Returns ``(m0, m1, mt, m2)``::

        m0 = ⟨Θ(σt - pε)⟩          (active fraction φ)
        m1 = ⟨s*⟩
        mt = ⟨s* t⟩
        m2 = ⟨(s*)²⟩

    All four reduce to the half-Gaussian moments with shift x = -pε/σ.
    """
    if sigma <= 0 or chi_hat <= 0:
        raise DomainError("sigma and chi_hat must be strictly positive")
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    i0, i1, i2 = half_moments(-p * eps / sigma)
    r = sigma / chi_hat
    # ⟨s* t⟩ = r ⟨(t+x)Θ(t+x) t⟩ = r (I_2 - x I_1) = r I_0 exactly
    return i0, r * i1, r * i0, r * r * i2
