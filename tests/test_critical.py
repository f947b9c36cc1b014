import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from randecon import critical
from randecon.critical import bracket_B, critical_line_sweep, solve_critical_pi
from randecon.errors import NoRootError
from randecon.gaussian import gauss_moment_I, std_normal_pdf


def moment_quad(order, x):
    val, _ = quad(lambda t: (t + x) ** order * std_normal_pdf(t),
                  max(-12.0, -x), 12.0, limit=400, epsabs=1e-13,
                  epsrel=1e-13)
    return val


def bracket_quad(xi, pi, n, eps):
    """Recomputation of B from raw quadrature moments only."""
    i0 = moment_quad(0, -xi)
    i1 = moment_quad(1, -xi)
    i2 = moment_quad(2, -xi)
    t0 = np.sqrt(n / i2) * (xi * i0 / eps + eps * i1)
    return 1.0 + xi ** 2 / eps ** 2 - ((1 - pi) / n) * (i2 / i0 ** 2) \
        * moment_quad(2, t0)


def bracket_B_grad(xi, pi, n, eps):
    """Analytic dB/dxi via the recurrences I0' = pdf, I1' = I0, I2' = 2 I1."""
    i0 = gauss_moment_I(0, -xi)
    i1 = gauss_moment_I(1, -xi)
    i2 = gauss_moment_I(2, -xi)
    pdf = std_normal_pdf(-xi)
    ratio = i2 / i0 ** 2
    # d/dxi of I_n(-xi) carries a chain-rule sign
    dratio = 2.0 * (-i1 * i0 + i2 * pdf) / i0 ** 3
    w = xi * i0 / eps + eps * i1
    dw = i0 / eps - xi * pdf / eps - eps * i0
    t0 = np.sqrt(n / i2) * w
    dt0 = np.sqrt(n) * (i1 * i2 ** -1.5 * w + i2 ** -0.5 * dw)
    di2_t0 = 2.0 * gauss_moment_I(1, t0) * dt0
    return 2.0 * xi / eps ** 2 \
        - ((1.0 - pi) / n) * (dratio * gauss_moment_I(2, t0) + ratio * di2_t0)


def h_tilde_pieces(xi, c, pi, n, eps):
    """(h1, h2, h3) of the rescaled log-volume at the partial saddle.

    The stationarity conditions in (r, c, v) fix, for given (xi, c):
    r = xi c / eps, v = I0(-xi), omega = (c/v)^2 I2(-xi),
    lam = r + (eps c / v) I1(-xi).
    """
    i0 = gauss_moment_I(0, -xi)
    i1 = gauss_moment_I(1, -xi)
    i2 = gauss_moment_I(2, -xi)
    r = xi * c / eps
    v = i0
    omega = (c / v) ** 2 * i2
    lam = r + (eps * c / v) * i1
    h1 = 0.5 * (v * omega - c * c - r * r) + r * lam
    h2 = (c * c / (2.0 * v)) * i2      # closed form of <max_s[-(v/2)s^2+(ct-r eps)s]>
    t0 = np.sqrt(n / omega) * lam
    h3 = -((1.0 - pi) * omega / (2.0 * n)) * gauss_moment_I(2, t0)
    return h1, h2, h3


class TestBracketB:
    def test_pi_one(self):
        for xi in (-2.0, 0.0, 1.5):
            assert bracket_B(xi, 1.0, 1.0, 0.1) == pytest.approx(
                1.0 + xi ** 2 / 0.01, abs=1e-12)

    def test_xi_zero_half_gaussian_ratio(self):
        # I2(0)/I0(0)^2 = 2 at the origin
        i2_over_i0sq = moment_quad(2, 0.0) / moment_quad(0, 0.0) ** 2
        assert i2_over_i0sq == pytest.approx(2.0, abs=1e-10)
        t0 = np.sqrt(1.0 / moment_quad(2, 0.0)) * 0.1 * moment_quad(1, 0.0)
        want = 1.0 - (0.35 / 1.0) * 2.0 * moment_quad(2, t0)
        assert bracket_B(0.0, 0.65, 1.0, 0.1) == pytest.approx(want, abs=1e-10)

    def test_random_against_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            xi = rng.uniform(-3, 3)
            pi = rng.uniform(0, 1)
            n = rng.uniform(0.2, 5)
            eps = rng.uniform(0.02, 0.3)
            assert bracket_B(xi, pi, n, eps) == pytest.approx(
                bracket_quad(xi, pi, n, eps), abs=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(20):
            xi = rng.uniform(-3, 3)
            pi = rng.uniform(0.05, 0.95)
            n = rng.uniform(0.3, 4)
            eps = rng.uniform(0.05, 0.3)
            fd = (bracket_B(xi + h, pi, n, eps)
                  - bracket_B(xi - h, pi, n, eps)) / (2 * h)
            grad = bracket_B_grad(xi, pi, n, eps)
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestDerivationChain:
    def test_pieces_reduce_to_bracket(self):
        # h1 + h2 + h3 = (c^2/2) B at the partial saddle, for any c
        rng = np.random.default_rng(31)
        for _ in range(20):
            xi = rng.uniform(-2, 2)
            c = rng.uniform(0.1, 3)
            pi = rng.uniform(0, 1)
            n = rng.uniform(0.3, 4)
            eps = rng.uniform(0.05, 0.3)
            h1, h2, h3 = h_tilde_pieces(xi, c, pi, n, eps)
            assert h1 + h2 + h3 == pytest.approx(
                0.5 * c ** 2 * bracket_B(xi, pi, n, eps), abs=1e-12)


class TestCriticalPi:
    def test_reference_values(self):
        # anchors frozen from converged runs of this solver, cross-checked
        # against the replica branch switch and the LP transition window
        assert solve_critical_pi(1.0, 0.1).pi_c == pytest.approx(0.330440,
                                                                 abs=2e-5)
        assert solve_critical_pi(1.0, 0.01).pi_c == pytest.approx(0.28453,
                                                                  abs=2e-5)
        assert solve_critical_pi(2.0, 0.1).pi_c == pytest.approx(0.06296,
                                                                 abs=2e-5)

    def test_decreasing_in_n(self):
        for eps in (0.01, 0.1):
            assert solve_critical_pi(2.0, eps).pi_c < \
                solve_critical_pi(1.0, eps).pi_c

    def test_eps_ordering(self):
        # smaller inefficiency expands the industrial region
        for n in (0.5, 1.0, 2.0):
            assert solve_critical_pi(n, 0.01).pi_c <= \
                solve_critical_pi(n, 0.1).pi_c

    def test_residual_small(self):
        pt = solve_critical_pi(1.0, 0.1)
        assert abs(pt.residual) < 1e-8
        assert abs(bracket_B(pt.xi, pt.pi_c, 1.0, 0.1)) < 1e-8

    @pytest.mark.parametrize("eps", (0.1, 0.01, 0.005))
    @pytest.mark.parametrize("n", (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    def test_stationary(self, n, eps):
        # (xi, pi_c) is a double root of B: B = 0 and dB/dxi = 0 together
        pt = solve_critical_pi(n, eps)
        assert abs(bracket_B(pt.xi, pt.pi_c, n, eps)) <= 1e-12
        assert abs(bracket_B_grad(pt.xi, pt.pi_c, n, eps)) <= 1e-5

    def test_sign_bracketing(self):
        pt = solve_critical_pi(1.0, 0.1)
        assert bracket_B(pt.xi, pt.pi_c + 1e-3, 1.0, 0.1) > 0
        assert bracket_B(pt.xi, pt.pi_c - 1e-3, 1.0, 0.1) < 0


class TestEpsOne:
    """At eps = 1 the two terms of t0 cancel and the left tail of G/A is
    flat at 1/(2n) down to rounding; its ripples are not the well."""

    @pytest.mark.parametrize("n", [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 100.0])
    def test_continuous_in_eps(self, n):
        at_one = solve_critical_pi(n, 1.0).pi_c
        for eps in (0.999, 1.001):
            assert abs(at_one - solve_critical_pi(n, eps).pi_c) < 1e-3

    def test_tied_maximum_is_no_root(self, monkeypatch):
        # a plateau at the top ties the maximum with its right neighbour,
        # so no Brent bracket exists: NoRootError, not scipy's ValueError
        monkeypatch.setattr(critical, "_ratio",
                            lambda xi, n, eps: 2.0 - np.abs(np.round(xi, 1)))
        with pytest.raises(NoRootError, match="no bracket"):
            solve_critical_pi(1.0, 0.1)


class TestHiddenMaximum:
    """At isolated n the well's maximum and the next minimum of G/A fall
    within one step of the coarse xi grid, which then shows no maximum;
    the fine scan finds it."""

    @pytest.mark.parametrize("n, eps", [(5.6234, 0.999), (5.6234, 1.0),
                                        (5.6234, 1.001), (7.0795, 0.9)])
    def test_found_and_stationary(self, n, eps):
        pt = solve_critical_pi(n, eps)
        assert abs(bracket_B(pt.xi, pt.pi_c, n, eps)) <= 1e-12
        assert abs(bracket_B_grad(pt.xi, pt.pi_c, n, eps)) <= 1e-5
        # pi_c falls with n: between its values a step either side
        left, right = (solve_critical_pi(n * r, eps).pi_c for r in (0.99, 1.01))
        assert left > pt.pi_c > right

    def test_coarse_grid_shows_no_maximum(self, monkeypatch):
        monkeypatch.setattr(critical, "_SCANS", critical._SCANS[:1])
        with pytest.raises(NoRootError, match="no interior local maximum"):
            solve_critical_pi(5.6234, 1.0)

    def test_no_well_is_still_no_root(self):
        with pytest.raises(NoRootError, match="no interior local maximum"):
            solve_critical_pi(1.0, 2.0)


def whole_grid_maximum(points, n, eps):
    """Oracle of ``critical._first_maximum``: the same rule on the whole
    np.linspace grid at once."""
    grid = np.linspace(-critical._XI_WINDOW, critical._XI_WINDOW, points)
    vals = critical._ratio(grid, n, eps)
    idx = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    low = np.fmin.accumulate(vals)
    tall = vals[idx] - low[idx - 1] > critical._RIPPLE * np.abs(vals[idx])
    if not tall.any():
        return None
    best = int(idx[tall][0])
    return grid[best - 1:best + 2]


class TestBlockedScan:
    """The xi grid is scanned in blocks of _BLOCK points."""

    @pytest.mark.parametrize("block", [2, 3, 7, 64, critical._BLOCK])
    @pytest.mark.parametrize("n, eps", [(0.05, 0.01), (1.0, 0.1), (3.0, 1.0),
                                        (50.0, 1.5), (1.0, 2.0)])
    def test_blocks_find_the_whole_grid_maximum(self, monkeypatch, block,
                                                n, eps):
        # small blocks put maxima and running minima on block edges
        monkeypatch.setattr(critical, "_BLOCK", block)
        want = whole_grid_maximum(critical._SCANS[0], n, eps)
        got = critical._first_maximum(critical._SCANS[0], n, eps)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()

    def test_fine_scan_is_the_whole_grid_scan(self):
        # the maximum the coarse grid misses sits in the fine scan's 56th
        # block
        for n, eps in ((5.6234, 1.0), (7.0795, 0.9), (1.0, 2.0)):
            got = critical._first_maximum(critical._SCANS[1], n, eps)
            want = whole_grid_maximum(critical._SCANS[1], n, eps)
            assert (got is None and want is None) or got.tobytes() == want.tobytes()

    def test_fine_scan_holds_one_block(self):
        # the whole fine grid took about 20 MB; one block takes a hundredth
        tracemalloc.start()
        try:
            with pytest.raises(NoRootError):
                solve_critical_pi(1.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestCriticalLineSweep:
    def test_single_point(self):
        pts = critical_line_sweep([1.0], 0.1)
        assert len(pts) == 1
        assert pts[0].pi_c == pytest.approx(0.330440, abs=2e-5)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.25, 4.0, 12)
        pts = critical_line_sweep(grid, 0.1)
        vals = [p.pi_c for p in pts]
        assert all(np.isfinite(vals))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_direction_independence(self):
        grid = [0.5, 1.0, 2.0]
        fwd = [p.pi_c for p in critical_line_sweep(grid, 0.1)]
        rev = [p.pi_c for p in critical_line_sweep(grid[::-1], 0.1)][::-1]
        np.testing.assert_allclose(fwd, rev, atol=1e-8)
