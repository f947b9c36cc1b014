import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from randecon import gaussian
from randecon.ensemble import EnsembleParams
from randecon.errors import DomainError, NonFiniteError
from randecon.gaussian import (QuadratureRule, erfc_half, gauss_hermite_rule,
                               gauss_moment_I, half_moments, std_normal_pdf,
                               truncated_scale_moments)
from randecon.replica import regular_residual

RULE = gauss_hermite_rule(120)

#: half-width of the split rule's window; the Gaussian mass outside ±12 is
#: ~1.8e-33, far below double precision.
WINDOW = 12.0


def gaussian_average(f, rule: QuadratureRule) -> float:
    """⟨f(t)⟩ evaluated as Σ w_i f(t_i) on the given rule."""
    values = np.asarray(f(rule.nodes), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("integrand returned a non-finite value at a quadrature node")
    return float(np.dot(rule.weights, values))


def split_rule(kinks=(), nodes_per_segment=24, max_width=0.75):
    """Composite Gauss-Legendre rule on [-12, 12] split at the given kinks.

    Hermite quadrature loses its spectral rate on integrands with Θ factors;
    placing segment boundaries at the kink locations restores it.  Kinks
    outside the window are ignored (their Gaussian mass is negligible).
    """
    kinks = [k for k in np.atleast_1d(np.asarray(kinks, dtype=float)) if abs(k) < WINDOW]
    edges = np.array(sorted({-WINDOW, WINDOW, *kinks}))
    x_ref, w_ref = leggauss(nodes_per_segment)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = max(1, int(np.ceil((hi - lo) / max_width)))
        for sub in range(pieces):
            a = lo + (hi - lo) * sub / pieces
            b = lo + (hi - lo) * (sub + 1) / pieces
            half = 0.5 * (b - a)
            t = 0.5 * (a + b) + half * x_ref
            nodes.append(t)
            weights.append(half * w_ref * std_normal_pdf(t))
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    # renormalize: the mass outside the window (~1.8e-33) is below double precision
    return QuadratureRule(nodes=nodes[order], weights=weights[order] / weights.sum())


def gauss_quad(f, lo=-12.0, hi=12.0, kink=None):
    """Independent oracle: adaptive quadrature against the Gaussian weight."""
    points = None
    if kink is not None and lo < kink < hi:
        points = [kink]
    val, err = quad(lambda t: f(t) * std_normal_pdf(t), lo, hi,
                    limit=400, points=points, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    return val


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert std_normal_pdf(x) == std_normal_pdf(-x)

    def test_at_one_series_oracle(self):
        # exp(-1/2)/sqrt(2*pi) by a plain series evaluation of exp
        series = sum((-0.5) ** k / math.factorial(k) for k in range(30))
        assert std_normal_pdf(1.0) == pytest.approx(
            series / np.sqrt(2 * np.pi), abs=1e-12)


class TestErfcHalf:
    def test_at_zero(self):
        assert erfc_half(0.0) == 0.5

    def test_limits(self):
        assert erfc_half(40.0) == pytest.approx(0.0, abs=1e-300)
        assert erfc_half(-40.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_normal_cdf(self):
        from scipy.stats import norm
        assert erfc_half(1.0 / np.sqrt(2)) == pytest.approx(
            1.0 - norm.cdf(1.0), abs=1e-12)

    def test_monotone_decreasing(self):
        # below about -5.5 the value rounds to 1.0 in double precision
        grid = np.linspace(-5, 6, 101)
        vals = [erfc_half(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)


class TestGaussMomentI:
    def test_order0_at_zero(self):
        assert gauss_moment_I(0, 0.0) == 0.5

    def test_order1_at_zero(self):
        assert gauss_moment_I(1, 0.0) == pytest.approx(0.3989422804, abs=1e-9)

    def test_order2_quadrature_oracle(self):
        want = gauss_quad(lambda t: (t + 1.3) ** 2 * (t + 1.3 > 0), kink=-1.3)
        assert gauss_moment_I(2, 1.3) == pytest.approx(want, abs=1e-10)

    def test_vanishes_at_minus_infinity(self):
        for order in (0, 1, 2):
            assert gauss_moment_I(order, -38.0) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_random_draws_against_quadrature(self, order):
        rng = np.random.default_rng(1845)
        for x in rng.uniform(-10, 10, size=60):
            want = gauss_quad(lambda t: (t + x) ** order * (t + x > 0), kink=-x)
            assert gauss_moment_I(order, x) == pytest.approx(want, abs=1e-8)

    def test_recurrence_identity(self):
        # I2(x) - x*I1(x) = I0(x) underpins several closed-form reductions
        for x in (-2.5, -0.4, 0.0, 0.7, 3.1):
            assert gauss_moment_I(2, x) - x * gauss_moment_I(1, x) == \
                pytest.approx(gauss_moment_I(0, x), abs=1e-12)


def per_order_moment(order, x):
    """I_order(x) by the per-order formulas half_moments replaced, each
    with its own erfc and density evaluation."""
    x = np.asarray(x, dtype=float)
    i0 = erfc_half(-x / np.sqrt(2.0))
    if order == 0:
        out = i0
    elif order == 1:
        out = x * i0 + std_normal_pdf(x)
    else:
        out = (1.0 + x * x) * i0 + x * std_normal_pdf(x)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


SHIFTS = st.floats(min_value=-40.0, max_value=40.0)


class TestHalfMoments:
    @given(SHIFTS)
    @example(0.0)
    @example(-0.0)
    def test_scalar_bits_match_per_order_formulas(self, x):
        got = half_moments(x)
        assert all(type(v) is float for v in got)
        for order in (0, 1, 2):
            assert got[order] == per_order_moment(order, x)
            assert gauss_moment_I(order, x) == got[order]

    @given(arrays(np.float64, st.integers(1, 8), elements=SHIFTS))
    def test_array_bits_match_per_order_formulas(self, x):
        got = half_moments(x)
        for order in (0, 1, 2):
            assert isinstance(got[order], np.ndarray)
            assert got[order].shape == x.shape
            assert np.array_equal(got[order], per_order_moment(order, x))

    @given(arrays(np.float64, st.integers(1, 8),
                  elements=st.one_of(SHIFTS, st.floats(allow_nan=True))))
    @example(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]))
    def test_array_bits_match_scalar_calls(self, x):
        # the premise of taking several shifts in one call: each element of
        # the vector result has the bits of the scalar call on that shift
        with np.errstate(all="ignore"):
            got = np.array(half_moments(x))
            want = np.array([half_moments(v) for v in x.tolist()]).T
        assert got.tobytes() == want.tobytes()

    def test_bad_order_raises(self):
        with pytest.raises(DomainError):
            gauss_moment_I(3, 0.5)

    def test_one_erfc_per_shift(self, monkeypatch):
        # truncated_scale_moments takes its moments from one erfc
        # evaluation, and a regular_residual evaluation takes the clamp
        # classes' and the scale law's from one more, on all three shifts
        calls, erfc = [], gaussian.erfc
        monkeypatch.setattr(gaussian, "erfc",
                            lambda x: calls.append(x) or erfc(x))
        truncated_scale_moments(0.4, 1.1, 0.9, 0.1)
        assert len(calls) == 1
        calls.clear()
        regular_residual([1.0, 0.3, 0.3, 1.0, 1.0, 0.3],
                         EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1))
        assert len(calls) == 1


class TestQuadratureRules:
    def test_hermite_invariants(self):
        assert abs(RULE.weights.sum() - 1.0) < 1e-12
        assert np.all(np.diff(RULE.nodes) > 0)
        assert np.all(RULE.weights > 0)

    def test_split_rule_invariants(self):
        rule = split_rule(kinks=(0.37,))
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert np.all(np.diff(rule.nodes) > 0)

    def test_invalid_rule_rejected(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=np.array([0.0, -1.0]),
                           weights=np.array([0.5, 0.5]))

    def test_normalization(self):
        assert gaussian_average(lambda t: np.ones_like(t), RULE) == \
            pytest.approx(1.0, abs=1e-12)

    def test_variance(self):
        assert gaussian_average(lambda t: t ** 2, RULE) == \
            pytest.approx(1.0, abs=1e-12)

    def test_kinked_integrand(self):
        val = gaussian_average(lambda t: np.where(t > 0, t ** 2, 0.0),
                               split_rule(kinks=(0.0,)))
        assert val == pytest.approx(gauss_moment_I(2, 0.0), abs=1e-8)

    def test_nonfinite_detected(self):
        with pytest.raises(NonFiniteError):
            gaussian_average(lambda t: np.full_like(t, np.nan), RULE)


class TestTruncatedScaleMoments:
    def test_zero_shift(self):
        m0, _, _, _ = truncated_scale_moments(0.0, 1.0, 1.0, 0.1)
        assert m0 == 0.5

    def test_mean_formula(self):
        p, sigma, chi_hat, eps = 1.0, 1.0, 1.0, 0.1
        m0, m1, _, _ = truncated_scale_moments(p, sigma, chi_hat, eps)
        want = (sigma / np.sqrt(2 * np.pi) * np.exp(-(eps * p) ** 2
                / (2 * sigma ** 2)) - eps * p * m0) / chi_hat
        assert m1 == pytest.approx(want, abs=1e-10)

    def test_jensen(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform(-2, 3)
            sigma, chi_hat = rng.uniform(0.05, 3, size=2)
            _, m1, _, m2 = truncated_scale_moments(p, sigma, chi_hat, 0.1)
            assert m2 * chi_hat ** 2 >= (m1 * chi_hat) ** 2 - 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            p = rng.uniform(-1, 2)
            sigma, chi_hat = rng.uniform(0.2, 2.5, size=2)
            eps = rng.uniform(0.0, 0.3)
            m0, m1, mt, m2 = truncated_scale_moments(p, sigma, chi_hat, eps)

            kink = p * eps / sigma

            def s_of(t):
                return np.maximum(sigma * t - p * eps, 0.0) / chi_hat

            assert m0 == pytest.approx(
                gauss_quad(lambda t: 1.0 * (sigma * t - p * eps > 0), kink=kink),
                abs=1e-8)
            assert m1 == pytest.approx(gauss_quad(s_of, kink=kink), abs=1e-8)
            assert mt == pytest.approx(
                gauss_quad(lambda t: s_of(t) * t, kink=kink), abs=1e-8)
            assert m2 == pytest.approx(
                gauss_quad(lambda t: s_of(t) ** 2, kink=kink), abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncated_scale_moments(1.0, 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            truncated_scale_moments(1.0, 1.0, -1.0, 0.1)
