"""Bit-identity of the one-pass saddle-residual kernel.

replica._moments evaluates the clamp classes, the final-good quadrature and
the scale law of one point in a single pass.  The oracles here are the
same residuals assembled the long way, from the per-part functions
(script_I for the clamp classes, chi u'(x*) formed here on the nodes and
shifts a of final_good_field for the final goods, truncated_scale_moments
for the scale law), with the same floating-point operations; the kernel
must give the same bits, NaN for NaN.

saddle_residual and rescaled_residual are the regular residual divided
through into the original variables and cut to its chi = 0 rows; they are
pinned bit for bit to those definitions.  The equations written out in the
original variables (p, sigma, chi_hat), as the library once stated them,
stay here as a reference oracle, which saddle_residual meets to within a
bound set by rounding.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from randecon import replica
from randecon.ensemble import EnsembleParams
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
    rule, a, _ = final_good_field(kappa, n_omega, chi)
    t, w = rule.nodes, rule.weights
    root = np.sqrt(np.maximum(a * a + 4.0 * chi, 0.0))
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
    """The six equations in the original variables, and a bound on the
    rounding by which they and saddle_residual may differ (None where the
    sigma radicand is not positive).

    The M averages do not read the scale law, so both statements take the
    same bits of them; they differ in the products p chi, sigma chi and
    chi_hat chi, the shift of the scale law and the order of the
    divisions.  Each row's bound is a few ulps of the magnitudes in it,
    with the scale-law moments weighted by (1 + x^2)^2, which bounds both
    their relative conditioning in the shift x and the cancellation in
    half_moments' I1 and I2 for x > 0."""
    m1, mt, m2 = (float(m) for m in oracle_moments(
        op.Omega, op.kappa, op.chi, params.n, params.pi, params.f))
    phi, s1, st_, s2 = truncated_scale_moments(op.p, op.sigma, op.chi_hat, params.eps)
    rad = m2 / op.chi**2 - op.p**2
    if not rad > 0:
        return None
    w = np.sqrt(params.n * op.Omega)
    rows = np.array([
        op.p - m1 / op.chi,
        op.chi_hat - mt / (op.chi * w),
        op.sigma - np.sqrt(rad),
        op.Omega - s2,
        op.kappa - op.p * op.chi - params.n * params.eps * s1,
        op.chi - params.n * st_ / op.sigma,
    ])
    cond = (1.0 + (op.p * params.eps / op.sigma) ** 2) ** 2
    ne = params.n * params.eps
    bound = 16 * np.finfo(float).eps * np.array([
        abs(op.p) + abs(m1 / op.chi),
        op.chi_hat + mt / (op.chi * w),
        op.sigma + (m2 / op.chi**2 + op.p**2) / np.sqrt(rad),
        op.Omega + s2 * cond,
        abs(op.kappa) + abs(op.p * op.chi) + ne * s1 * cond,
        op.chi + params.n * st_ / op.sigma * cond,
    ])
    return rows, bound


def oracle_rescaled(u, params):
    """The five chi = 0 equations as once stated on their own (None where
    the gamma radicand is negative)."""
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


def regular_point(op):
    """The regular coordinates (Omega, kappa, ell, gamma, delta, chi) of op."""
    return np.array([op.Omega, op.kappa, op.p * op.chi, op.sigma * op.chi,
                     op.chi_hat * op.chi, op.chi])


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
CHI_POSITIVE = st.floats(min_value=1e-14, max_value=200.0)
CHI = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=0.0), CHI_POSITIVE)
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
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE, CHI_POSITIVE, PARAMS)
    @example(1.0, 0.3, 1.0, 1.0, 1.0, 0.3, BASE.with_(f=0.0))
    def test_saddle_residual_bits(self, omega, kappa, p, sigma, chi_hat, chi, params):
        # the regular residual at the point, divided through by
        # (chi, chi, chi, 1, 1, chi_hat)
        op = OrderParams(omega, kappa, p, sigma, chi, chi_hat)
        pr = params
        with np.errstate(all="ignore"):
            want = (oracle_regular(regular_point(op), pr.n, pr.pi, pr.f, pr.eps)
                    / np.array([chi, chi, chi, 1.0, 1.0, chi_hat]))
            got = saddle_residual(op, params)
        assert isinstance(got, np.ndarray) and got.shape == (6,)
        assert same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE, CHI_POSITIVE, PARAMS)
    @example(1.0, 0.3, 1.0, 1.0, 1.0, 0.3, BASE.with_(f=0.0))
    @example(0.2, 0.4, 1.1, 0.8, 1.4, 1e-14, BASE)
    def test_saddle_residual_meets_original_statement(self, omega, kappa, p, sigma,
                                                      chi_hat, chi, params):
        op = OrderParams(omega, kappa, p, sigma, chi, chi_hat)
        with np.errstate(all="ignore"):
            oracle = oracle_saddle(op, params)
            got = saddle_residual(op, params)
        if oracle is None:
            return
        want, bound = oracle
        assert np.all(np.abs(got - want) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(POSITIVE, SIGNED, SIGNED, POSITIVE, POSITIVE, PARAMS)
    @example(1.0, 0.3, 0.3, 1.0, 1.0, BASE.with_(f=1.0))
    @example(1.0, 0.3, 5.0, 1.0, 1.0, BASE)
    def test_rescaled_residual_bits(self, omega, kappa, ell, gamma, delta, params):
        # the first five rows of the regular residual at chi = 0; where the
        # gamma radicand is not negative these are also the chi = 0
        # equations as once stated on their own, bit for bit
        u = [omega, kappa, ell, gamma, delta]
        pr = params
        with np.errstate(all="ignore"):
            want = oracle_regular([*u, 0.0], pr.n, pr.pi, pr.f, pr.eps)[:5]
            old = oracle_rescaled(u, params)
            got = rescaled_residual(u, params)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert same_bits(got, want)
        if old is not None:
            assert same_bits(got, old)


class TestSearchResidual:
    @staticmethod
    def search():
        return replica._Search(BASE)

    def test_nan_input_gives_the_flag_vector(self):
        s = self.search()
        for i in range(6):
            z = np.zeros(6)
            z[i] = np.nan
            with np.errstate(all="ignore"):   # as inside _Search._root
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
        with np.errstate(all="ignore"):   # as inside _Search._root
            got = s.residual(z, n, pi)
        assert same_bits(got, want)

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
