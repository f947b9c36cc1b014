"""Bit-identity of the one-pass saddle-residual kernel.

replica._moments evaluates the clamp classes, the final-good quadrature and
the scale law of one point in a single pass.  The oracles here are the
same residuals assembled the long way, from the per-part functions
(script_I for the clamp classes, final_good_field for the final goods,
truncated_scale_moments for the scale law), with the same floating-point
operations; the kernel must give the same bits, NaN for NaN.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randecon import replica
from randecon.ensemble import EnsembleParams
from randecon.errors import DomainError
from randecon.gaussian import half_moments, truncated_scale_moments
from randecon.replica import (OrderParams, final_good_field,
                              rescaled_residual, saddle_residual)


def script_I(x0, kappa, n_omega):
    """Closed forms (I1, It, I2) of the clamp gap
    (kappa + sqrt(n Omega) t - x0) Theta(...), its t and its square
    moments: the k = 0 contributions to the M averages."""
    w = np.sqrt(n_omega)
    i0, i1, i2 = half_moments((kappa - x0) / w)
    return w * i1, w * i0, n_omega * i2


def oracle_moments(omega, kappa, chi, n, pi, f):
    """(M1, Mt, M2): clamp moments per class, then the final-good quadrature."""
    x0 = np.array([0.0, 1.0])
    weights = np.array([1.0 - pi, pi])
    n_omega = n * omega
    clamp = np.array(script_I(x0, kappa, n_omega)) @ weights
    if f == 0 or chi == 0.0:
        return clamp
    rule, a, root = final_good_field(kappa, n_omega, chi)
    t, w = rule.nodes, rule.weights
    g = np.where(a > 0, 2.0 * chi / (root + a), 0.5 * (root - a))
    final = np.array([(g @ w), (g @ (w * t)), ((g * g) @ w)]) @ weights
    return f * final + (1.0 - f) * clamp


def oracle_regular(u, n, pi, f, eps):
    omega, kappa, ell, gamma, delta, chi = u
    m1, mt, m2 = oracle_moments(omega, kappa, chi, n, pi, f)
    phi, s1, _, s2 = truncated_scale_moments(ell, gamma, delta, eps)
    return np.array([
        ell - m1,
        delta - mt / np.sqrt(n * omega),
        gamma - np.sqrt(max(m2 - ell * ell, 0.0)),
        omega - s2,
        kappa - ell - n * eps * s1,
        delta - n * phi,
    ])


def oracle_saddle(op, params):
    m1, mt, m2 = (float(m) for m in oracle_moments(
        op.Omega, op.kappa, op.chi, params.n, params.pi, params.f))
    phi, s1, st_, s2 = truncated_scale_moments(op.p, op.sigma, op.chi_hat, params.eps)
    rad = m2 / op.chi**2 - op.p**2
    if rad < 0:
        return None
    return np.array([
        op.p - m1 / op.chi,
        op.chi_hat - mt / (op.chi * np.sqrt(params.n * op.Omega)),
        op.sigma - np.sqrt(rad),
        op.Omega - s2,
        op.kappa - op.p * op.chi - params.n * params.eps * s1,
        op.chi - params.n * st_ / op.sigma,
    ])


def oracle_rescaled(u, params):
    omega, kappa, ell, gamma, delta = np.asarray(u, dtype=float)
    m1, mt, m2 = oracle_moments(omega, kappa, 0.0, params.n, params.pi, params.f)
    phi, s1, st_, s2 = truncated_scale_moments(ell, gamma, delta, params.eps)
    rad = m2 - ell**2
    if rad < 0:
        return None
    return np.array([
        ell - m1,
        delta - mt / np.sqrt(params.n * omega),
        gamma - np.sqrt(rad),
        omega - s2,
        kappa - ell - params.n * params.eps * s1,
    ])


def oracle_search_residual(search, z, n, pi):
    """_Search.residual with the log coordinates cut by np.clip."""
    u = np.array(z, dtype=float)
    u[replica._LOG] = np.exp(np.clip(u[replica._LOG], -700.0, 700.0))
    p = search.params
    with np.errstate(all="ignore"):
        r = oracle_regular(u / search.scale, n, pi, p.f, p.eps)
    return r if np.all(np.isfinite(r)) else np.full(6, 1e10)


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True)


POSITIVE = st.floats(min_value=1e-4, max_value=1e3)
SIGNED = st.floats(min_value=-200.0, max_value=200.0)
CHI = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=0.0),
                st.floats(min_value=1e-14, max_value=200.0))
PARAMS = st.builds(
    EnsembleParams,
    n=st.floats(min_value=0.05, max_value=20.0),
    pi=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    f=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    eps=st.one_of(st.floats(min_value=1e-5, max_value=1e-3),
                  st.floats(min_value=1e-3, max_value=0.5)))
BASE = EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)


class TestRegularKernel:
    @settings(max_examples=400, deadline=None)
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE, CHI, PARAMS)
    @example(1.0, 0.3, 0.3, 1.0, 1.0, 0.0, BASE)
    @example(1.0, 0.3, 0.3, 1.0, 1.0, -0.2, BASE.with_(f=1.0))
    @example(1.0, 0.3, 0.3, 1.0, 1.0, 0.3, BASE.with_(f=0.0))
    @example(0.5, 40.0, 35.0, 0.8, 0.9, 40.0, BASE.with_(eps=1e-4))
    def test_regular_bits(self, omega, kappa, ell, gamma, delta, chi, params):
        u = np.array([omega, kappa, ell, gamma, delta, chi])
        p = params
        with np.errstate(all="ignore"):
            want = oracle_regular(u, p.n, p.pi, p.f, p.eps)
            got = replica._regular(u, p.n, p.pi, p.f, p.eps)
        assert isinstance(got, np.ndarray) and got.shape == (6,)
        assert same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE,
           st.floats(min_value=1e-14, max_value=200.0), PARAMS)
    @example(1.0, 0.3, 1.0, 1.0, 1.0, 0.3, BASE.with_(f=0.0))
    def test_saddle_residual_bits(self, omega, kappa, p, sigma, chi_hat, chi, params):
        op = OrderParams(omega, kappa, p, sigma, chi, chi_hat)
        with np.errstate(all="ignore"):
            want = oracle_saddle(op, params)
            if want is None:
                with pytest.raises(DomainError):
                    saddle_residual(op, params)
                return
            got = saddle_residual(op, params)
        assert same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE, PARAMS)
    @example(1.0, 0.3, 0.3, 1.0, 1.0, BASE.with_(f=1.0))
    def test_rescaled_residual_bits(self, omega, kappa, ell, gamma, delta, params):
        u = [omega, kappa, ell, gamma, delta]
        with np.errstate(all="ignore"):
            want = oracle_rescaled(u, params)
            if want is None:
                with pytest.raises(DomainError):
                    rescaled_residual(u, params)
                return
            got = rescaled_residual(u, params)
        assert same_bits(got, want)


class TestSearchResidual:
    @staticmethod
    def search():
        return replica._Search(BASE)

    def test_nan_input_gives_the_flag_vector(self):
        s = self.search()
        for i in range(6):
            z = np.zeros(6)
            z[i] = np.nan
            r = s.residual(z, BASE.n, BASE.pi)
            assert r.tobytes() == np.full(6, 1e10).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-2000.0, max_value=2000.0),
                    min_size=6, max_size=6),
           st.floats(min_value=0.05, max_value=20.0), st.floats(0.0, 1.0))
    @example([750.0, 0.3, 0.03, 0.0, 0.0, 0.03], 2.0, 0.65)
    @example([-750.0, 0.3, 0.03, -701.0, 702.0, 0.03], 2.0, 0.65)
    @example([0.0, 0.03, 0.03, 700.5, -700.5, 0.0], 2.0, 0.65)
    def test_log_coordinates_past_the_clip(self, z, n, pi):
        # the log coordinates are cut at +-700 before exp, which keeps some
        # of these residuals finite; the result is the clipped one, bit for bit
        z = np.array(z)
        s = self.search()
        want = oracle_search_residual(s, z, n, pi)
        assert same_bits(s.residual(z, n, pi), want)

    def test_finite_beyond_the_clip(self):
        # the cut at -700 keeps Omega, gamma and delta positive and finite
        z = np.array([-750.0, 0.03, 0.03, 0.0, 0.0, 0.03])
        r = self.search().residual(z, BASE.n, BASE.pi)
        assert np.all(np.isfinite(r)) and not np.all(r == 1e10)

    def test_every_call_counts(self):
        s = self.search()
        z = s.starts()[0]
        for k in range(1, 4):
            s.residual(z, BASE.n, BASE.pi)
            assert s.evals == k
        s.residual(np.full(6, np.nan), BASE.n, BASE.pi)
        assert s.evals == 4
