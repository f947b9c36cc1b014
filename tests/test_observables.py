import numpy as np
import pytest
from scipy.integrate import quad

from randecon.ensemble import EnsembleParams
from randecon.errors import DomainError, NonFiniteError
from randecon.gaussian import std_normal_pdf
from randecon.observables import (ObservableSet, active_fraction, goods_atom,
                                  goods_density, mean_scale, observable_set,
                                  scale_density)
from randecon.replica import OrderParams, SaddleSolution, solve_saddle

PARAMS = EnsembleParams(n=3.0, pi=0.65, f=0.5, eps=0.1)


@pytest.fixture(scope="module")
def sol():
    out = solve_saddle(PARAMS)
    assert out.branch == "industrial"
    return out


@pytest.fixture(scope="module")
def obs(sol):
    return observable_set(sol)


class TestActiveFraction:
    def test_limits(self):
        op_small = OrderParams(0.1, 0.1, 1e-14, 1.0, 0.1, 1.0)
        assert active_fraction(op_small, 0.1) == pytest.approx(0.5, abs=1e-12)
        op_large = OrderParams(0.1, 0.1, 1e6, 1.0, 0.1, 1.0)
        assert active_fraction(op_large, 0.1) == pytest.approx(0.0, abs=1e-200)

    def test_in_unit_interval(self, sol):
        assert 0.0 < active_fraction(sol.op, PARAMS.eps) < 1.0


class TestScaleDensity:
    def test_normalization(self, sol):
        op = sol.op
        phi = active_fraction(op, PARAMS.eps)
        integral, _ = quad(lambda s: scale_density(s, op, PARAMS.eps), 0, 50,
                           limit=300)
        assert (1 - phi) + integral == pytest.approx(1.0, abs=1e-9)

    def test_mean_consistency(self, sol):
        op = sol.op
        integral, _ = quad(lambda s: s * scale_density(s, op, PARAMS.eps),
                           0, 50, limit=300)
        assert integral == pytest.approx(mean_scale(op, PARAMS.eps), abs=1e-9)

    def test_value_at_origin(self, sol):
        op = sol.op
        want = (op.chi_hat / (np.sqrt(2 * np.pi) * op.sigma)) * np.exp(
            -(PARAMS.eps * op.p) ** 2 / (2 * op.sigma ** 2))
        assert scale_density(0.0, op, PARAMS.eps) == pytest.approx(want,
                                                                  abs=1e-12)


class TestGoodsDensity:
    def test_atom_half_at_coincidence(self, sol):
        op = sol.op
        modified = OrderParams(op.Omega, 1.0, op.p, op.sigma, op.chi,
                               op.chi_hat)
        assert goods_atom(1, 0, modified, PARAMS) == 0.5

    def test_final_good_no_atom(self, sol):
        assert goods_atom(1, 1, sol.op, PARAMS) == 0.0

    @pytest.mark.parametrize("x0", [0, 1])
    def test_k1_normalization(self, sol, x0):
        integral, _ = quad(
            lambda x: goods_density(x, x0, 1, sol.op, PARAMS), 1e-12, 60,
            limit=400)
        assert integral == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("x0", [0, 1])
    def test_k0_normalization(self, sol, x0):
        atom = goods_atom(x0, 0, sol.op, PARAMS)
        integral, _ = quad(
            lambda x: goods_density(x, x0, 0, sol.op, PARAMS), 0, 60,
            limit=400)
        assert atom + integral == pytest.approx(1.0, abs=1e-9)

    def test_k0_mean_matches_conditional(self, sol, obs):
        for x0, want in ((1, obs.x10), (0, obs.x00)):
            mean, _ = quad(
                lambda x: x * goods_density(x, x0, 0, sol.op, PARAMS), 0, 60,
                limit=400)
            assert mean == pytest.approx(want, abs=1e-9)

    def test_k1_mean_matches_conditional(self, sol, obs):
        for x0, want in ((1, obs.x11), (0, obs.x01)):
            mean, _ = quad(
                lambda x: x * goods_density(x, x0, 1, sol.op, PARAMS), 1e-12,
                60, limit=400)
            assert mean == pytest.approx(want, abs=1e-7)


class TestObservableSet:
    def test_consumption_waste_identity(self, obs):
        want_xc = PARAMS.f * (PARAMS.pi * obs.x11 + (1 - PARAMS.pi) * obs.x01)
        want_xw = (1 - PARAMS.f) * (PARAMS.pi * obs.x10
                                    + (1 - PARAMS.pi) * obs.x00)
        assert obs.consumption == pytest.approx(want_xc, abs=1e-12)
        assert obs.waste == pytest.approx(want_xw, abs=1e-12)
        assert obs.consumption + obs.waste == pytest.approx(obs.x_mean,
                                                            abs=1e-9)

    def test_mean_availability_identity(self, obs):
        want = PARAMS.pi - PARAMS.n * PARAMS.eps * obs.s_mean
        assert obs.x_mean == pytest.approx(want, abs=1e-6)


class TestUtility:
    def test_against_adaptive_quadrature(self, sol, obs):
        # <log x*> per class by adaptive quadrature, split where a = 0
        op = sol.op
        w = np.sqrt(PARAMS.n * op.Omega)
        want = 0.0
        for x0, weight in ((1.0, PARAMS.pi), (0.0, 1.0 - PARAMS.pi)):
            def log_x(t):
                a = x0 - op.kappa - w * t
                root = np.sqrt(a * a + 4.0 * op.chi)
                return np.log(0.5 * (a + root) if a > 0
                              else 2.0 * op.chi / (root - a))
            kink = (x0 - op.kappa) / w
            assert abs(kink) < 12
            val, err = quad(lambda t: log_x(t) * std_normal_pdf(t), -12, 12,
                            points=[kink], limit=400, epsabs=1e-13,
                            epsrel=1e-13)
            assert err < 1e-11
            want += weight * val
        assert obs.utility == pytest.approx(want, abs=1e-9)

    def test_underflow_raises(self):
        # chi = 1e-20: a^2 + 4 chi rounds to a^2, so x* = 0 where a < 0
        op = OrderParams(Omega=0.2, kappa=0.3, p=1.1, sigma=0.8, chi=1e-20,
                         chi_hat=1.4)
        sol = SaddleSolution(params=PARAMS, branch="industrial", op=op,
                             residual_norm=0.0, iterations=0)
        with pytest.raises(NonFiniteError):
            observable_set(sol)


def collapsed(params):
    return SaddleSolution(params=params, branch="collapsed", op=None,
                          residual_norm=0.0, iterations=0)


class TestCollapsedBranch:
    def test_conditional_consumption(self):
        # nothing operates: every good keeps its endowment
        obs = observable_set(collapsed(PARAMS))
        assert (obs.x11, obs.x01, obs.x10, obs.x00) == (1.0, 0.0, 1.0, 0.0)
        assert (obs.phi, obs.s_mean, obs.x_mean) == (0.0, 0.0, PARAMS.pi)

    def test_aggregates(self):
        sol = solve_saddle(EnsembleParams(n=0.2, pi=0.05, f=0.5, eps=0.1))
        assert sol.branch == "collapsed"
        obs = observable_set(sol)
        assert obs.consumption == pytest.approx(0.5 * 0.05, abs=1e-12)
        assert obs.waste == pytest.approx(0.5 * 0.05, abs=1e-12)
        assert obs.utility == float("-inf")

    def test_utility_all_primary(self):
        assert observable_set(collapsed(
            EnsembleParams(n=0.2, pi=1.0, f=0.5, eps=0.1))).utility == 0.0
        assert observable_set(collapsed(
            EnsembleParams(n=0.2, pi=0.4, f=0.5, eps=0.1))).utility == float("-inf")


class TestFailedBranch:
    def test_refused_with_branch_named(self):
        # a sweep records a point whose solve fails as branch "failed",
        # with no order parameters to take observables of
        failed = SaddleSolution(params=PARAMS, branch="failed", op=None,
                                residual_norm=np.inf, iterations=0)
        with pytest.raises(DomainError, match="'failed'"):
            observable_set(failed)


class TestJumpDecomposition:
    def test_consistency(self, obs):
        # dX = dXC + dXW with dX = n eps <s*>
        d_x = PARAMS.n * PARAMS.eps * obs.s_mean
        d_xc = PARAMS.f * (PARAMS.pi * (1 - obs.x11)
                           - (1 - PARAMS.pi) * obs.x01)
        d_xw = (1 - PARAMS.f) * (PARAMS.pi * (1 - obs.x10)
                                 - (1 - PARAMS.pi) * obs.x00)
        assert d_x == pytest.approx(d_xc + d_xw, abs=1e-6)
        assert d_x >= 0.0
