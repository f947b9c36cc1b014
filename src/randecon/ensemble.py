"""Random-economy ensemble: macro parameters and finite-size instance sampling.

An economy instance consists of a technology matrix ``q`` (N activities x
C goods, net output per unit scale), a 0/1 endowment vector ``x0``
(primary goods) and a 0/1 preference vector ``k`` (final goods).  Entries
of ``q`` are i.i.d. Gaussian with mean 0 and variance 1/C, then every
row is shifted by a constant so that its sum is exactly -eps: each
activity consumes eps more input than it produces, which bounds every
feasible production plan.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EnsembleParams:
    """Macro parameters of the ensemble.

    n     technologies per good, N/C
    pi    fraction of primary goods
    f     fraction of final goods
    eps   inefficiency (input excess) of every technology
    """

    n: float
    pi: float
    f: float
    eps: float

    def __post_init__(self):
        if not (self.n > 0 and self.eps > 0):
            raise DomainError("n and eps must be strictly positive")
        if not (0.0 <= self.pi <= 1.0 and 0.0 <= self.f <= 1.0):
            raise DomainError("pi and f must lie in [0, 1]")

    def with_(self, **kwargs) -> "EnsembleParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EconomyInstance:
    """One sampled finite economy."""

    N: int
    C: int
    eps: float
    seed: int
    q: np.ndarray = field(repr=False)   # (N, C)
    x0: np.ndarray = field(repr=False)  # (C,) in {0, 1}
    k: np.ndarray = field(repr=False)   # (C,) in {0, 1}

    def __post_init__(self):
        if self.q.shape != (self.N, self.C):
            raise DomainError("q must have shape (N, C)")
        if self.x0.shape != (self.C,) or self.k.shape != (self.C,):
            raise DomainError("x0 and k must have length C")


def economy_draws(params: EnsembleParams, C: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random numbers of one economy instance, in the order they are
    drawn from ``default_rng(seed)``: the technology matrix q (N x C), the
    endowment uniforms u and the preference uniforms v (each of length C).
    Good c is primary when u_c < pi and final when v_c < f
    (``sample_economy``); nothing here reads pi or f, so the primary and
    final sets of one seed are nested in pi and in f."""
    if C < 2:
        raise DomainError("C must be at least 2")
    N = int(round(params.n * C))
    if N < 1:
        raise DomainError("round(n*C) must be at least 1")
    rng = np.random.default_rng(seed)
    q = rng.normal(0.0, 1.0 / np.sqrt(C), size=(N, C))
    # minimal-norm projection onto the constraint plane sum_c q_i^c = -eps:
    # each activity consumes eps more than it produces, which makes the
    # per-instance identity mean(x) = mean(x0) - (N/C) eps mean(s) exact
    q -= (q.sum(axis=1, keepdims=True) + params.eps) / C
    return q, rng.random(C), rng.random(C)


def sample_economy(params: EnsembleParams, C: int, seed: int) -> EconomyInstance:
    """Draw one economy instance; bit-reproducible from (params, C, seed)."""
    q, u, v = economy_draws(params, C, seed)
    return EconomyInstance(N=q.shape[0], C=C, eps=params.eps, seed=seed, q=q,
                           x0=(u < params.pi).astype(float),
                           k=(v < params.f).astype(float))


def intermediate_sweep_map(f_over_n: float, pi_over_n: float, i: float,
                           eps: float = 0.1) -> EnsembleParams:
    """Ensemble parameters at fixed f/n and pi/n with intermediate fraction i.

    Solves (1 - f)(1 - pi) = i together with f = n*(f/n), pi = n*(pi/n)
    for the development level n.  Used for sweeps where the economy grows
    through the proliferation of intermediate goods (C increases at fixed
    numbers of primary/final goods per technology, so n = N/C shrinks).
    The quadratic for n has two roots; the smaller one is returned, the
    branch continuously connected to n -> 0 as i -> 1.
    """
    if not (0.0 <= i < 1.0):
        raise DomainError("i must lie in [0, 1)")
    a = f_over_n * pi_over_n
    b = f_over_n + pi_over_n
    # (1 - n f/n)(1 - n pi/n) = i  <=>  a n^2 - b n + (1 - i) = 0
    if a == 0.0:
        if b == 0.0:
            raise DomainError("f/n and pi/n cannot both be zero")
        n = (1.0 - i) / b
    else:
        disc = b * b - 4.0 * a * (1.0 - i)
        if disc < 0:
            raise DomainError("no real n matches the requested intermediate fraction")
        n = (b - np.sqrt(disc)) / (2.0 * a)
    if n <= 0:
        raise DomainError("no positive n matches the requested intermediate fraction")
    f = f_over_n * n
    pi = pi_over_n * n
    if not (0.0 <= f <= 1.0 + 1e-9 and 0.0 <= pi <= 1.0 + 1e-9):
        raise DomainError("resulting (pi, f) leave the unit square")
    f, pi = min(f, 1.0), min(pi, 1.0)
    return EnsembleParams(n=float(n), pi=float(pi), f=float(f), eps=eps)

