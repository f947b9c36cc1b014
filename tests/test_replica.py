import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import quad

from randecon import critical, replica
from randecon.critical import solve_critical_pi
from randecon.ensemble import EnsembleParams
from randecon.errors import DomainError, NoConvergenceError, NoRootError
from randecon.gaussian import gauss_hermite_rule, std_normal_pdf
from randecon.replica import (OrderParams, branch_switch_pi, final_good_field,
                              psi_exploited, regular_residual,
                              rescaled_residual, saddle_residual, solve_saddle,
                              sweep)

PARAMS = EnsembleParams(n=3.0, pi=0.65, f=0.5, eps=0.1)


@pytest.fixture(scope="module")
def converged():
    sol = solve_saddle(PARAMS)
    assert sol.branch == "industrial"
    return sol


class TestXStar:
    """g = chi u'(x*) = x* - a on the final-good field, one row per x0 in
    {0, 1}, and x* = a + g where a > 0, chi/g elsewhere."""
    OP = OrderParams(Omega=0.2, kappa=0.3, p=1.1, sigma=0.8, chi=0.2,
                     chi_hat=1.4)

    def field(self, n, kappa=None):
        kappa = self.OP.kappa if kappa is None else kappa
        _, a, g = final_good_field(kappa, n * self.OP.Omega, self.OP.chi)
        return a, g, np.where(a > 0, a + g, self.OP.chi / g)

    def test_at_gap_zero(self):
        # a = 0 at one node of the x0 = 0 row: x* = g = sqrt(chi)
        nodes = replica._RULE.nodes
        k = len(nodes) // 2
        a, g, xs = self.field(1.0, kappa=-(np.sqrt(self.OP.Omega) * nodes[k]))
        assert a[0, k] == 0.0
        assert g[0, k] == pytest.approx(np.sqrt(0.2), abs=1e-12)
        assert xs[0, k] == pytest.approx(np.sqrt(0.2), abs=1e-12)

    def test_fixed_point_residual(self):
        a, g, xs = self.field(1.0)
        np.testing.assert_allclose(self.OP.chi / xs, xs - a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xs * g, self.OP.chi, rtol=1e-15, atol=0)

    @staticmethod
    def bracketed_root(a, chi, uprime):
        """Solve chi u'(x) = x - a for x > 0 by bracketed root-finding."""
        lo = max(a, 0.0) + 1e-300
        hi = max(a, 0.0) + 1.0
        while hi - a - chi * uprime(hi) < 0:
            hi *= 2.0
        return optimize.brentq(lambda x: x - a - chi * uprime(x), lo, hi,
                               xtol=1e-14, rtol=1e-12)

    def test_generic_utility_path_matches_log(self):
        a, _, xs = self.field(2.0)
        for a_i, closed in zip(a[1], xs[1]):
            generic = self.bracketed_root(a_i, self.OP.chi, lambda x: 1.0 / x)
            assert generic == pytest.approx(closed, abs=1e-10)


class TestMomentsM:
    OP = OrderParams(Omega=0.15, kappa=0.42, p=1.3, sigma=0.9, chi=0.12,
                     chi_hat=1.7)

    def brute_force(self, params):
        """Independent double quadrature: adaptive in t, exact in (x0, k)."""
        out = np.zeros(3)
        n_omega = params.n * self.OP.Omega
        w = np.sqrt(n_omega)
        for x0, wx in ((0.0, 1 - params.pi), (1.0, params.pi)):
            for k, wk in ((0, 1 - params.f), (1, params.f)):
                def g(t):
                    a = x0 - self.OP.kappa - w * t
                    if k == 1:
                        xs = 0.5 * (a + np.sqrt(a * a + 4 * self.OP.chi))
                    else:
                        xs = max(a, 0.0)
                    return xs - a
                kink = (x0 - self.OP.kappa) / w
                for j, f in enumerate((lambda t: g(t),
                                       lambda t: g(t) * t,
                                       lambda t: g(t) ** 2)):
                    val, _ = quad(lambda t: f(t) * std_normal_pdf(t),
                                  -12, 12, points=[kink] if abs(kink) < 12 else None,
                                  limit=400, epsabs=1e-12, epsrel=1e-12)
                    out[j] += wx * wk * val
        return out

    @pytest.mark.parametrize("pi,f,n", [(0.65, 0.5, 3.0), (0.3, 0.0, 1.0),
                                        (1.0, 0.8, 0.7), (0.5, 1.0, 2.0)])
    def test_against_double_quadrature(self, pi, f, n):
        params = EnsembleParams(n=n, pi=pi, f=f, eps=0.1)
        # the residual kernel's M averages, which the scale law leaves
        # alone: a unit one stands in
        got = replica._moments(self.OP.Omega, self.OP.kappa, self.OP.chi,
                               (0.0, 1.0, 1.0), params.n, params.pi,
                               params.f, params.eps)[:3]
        want = self.brute_force(params)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_psi_half_at_coincidence(self):
        assert psi_exploited(1.0, 1.0, 0.3) == 0.5


class TestSaddleSolve:
    def test_industrial_point(self, converged):
        assert converged.residual_norm < 1e-9
        resid = saddle_residual(converged.op, PARAMS)
        assert np.linalg.norm(resid) < 1e-9

    def test_phi_in_unit_interval(self, converged):
        from randecon.observables import active_fraction
        phi = active_fraction(converged.op, PARAMS.eps)
        assert 0.0 < phi < 1.0

    def test_industrial_above_line(self):
        sol = solve_saddle(EnsembleParams(n=3.0, pi=0.9, f=0.5, eps=0.1))
        assert sol.branch == "industrial"

    def test_collapsed_below_line(self):
        sol = solve_saddle(EnsembleParams(n=0.2, pi=0.05, f=0.5, eps=0.1))
        assert sol.branch == "collapsed"

    def test_continuation_converges(self, converged):
        sol = solve_saddle(PARAMS.with_(n=2.9), init=converged.op)
        assert sol.branch == "industrial"
        assert sol.residual_norm < 1e-9

    def test_saddle_equation_restatements(self, converged):
        from randecon.gaussian import truncated_scale_moments
        op = converged.op
        _, s1, st, _ = truncated_scale_moments(op.p, op.sigma, op.chi_hat,
                                               PARAMS.eps)
        assert op.kappa == pytest.approx(
            op.p * op.chi + PARAMS.n * PARAMS.eps * s1, abs=1e-9)
        assert op.chi * op.sigma == pytest.approx(PARAMS.n * st, abs=1e-9)

    def test_omega_dominates_mean_squared(self, converged):
        from randecon.gaussian import truncated_scale_moments
        op = converged.op
        _, s1, _, s2 = truncated_scale_moments(op.p, op.sigma, op.chi_hat,
                                               PARAMS.eps)
        assert op.Omega == pytest.approx(s2, abs=1e-9)
        assert op.Omega >= s1 ** 2

    def test_node_doubling_stability(self, converged, monkeypatch):
        monkeypatch.setattr(replica, "_RULE", gauss_hermite_rule(240))
        sol = solve_saddle(PARAMS, init=converged.op)
        assert np.max(np.abs(sol.op.as_array() - converged.op.as_array())) < 1e-7

    def test_collapsed_f_independence(self):
        a = solve_saddle(EnsembleParams(n=1.0, pi=0.31, f=0.2, eps=0.1))
        b = solve_saddle(EnsembleParams(n=1.0, pi=0.31, f=0.8, eps=0.1))
        assert a.branch == b.branch == "collapsed"
        assert a.op is b.op is None

    def test_collapsed_sentinel_shape(self):
        # below the switch every process shuts down; the label alone is the
        # state, with residual zero, near the line and deep below it
        pi_c = solve_critical_pi(1.0, 0.1).pi_c
        for pi in (0.31, pi_c - 1e-3, pi_c - 1e-2, pi_c - 0.1):
            sol = solve_saddle(EnsembleParams(n=1.0, pi=pi, f=0.5, eps=0.1))
            assert sol.branch == "collapsed"
            assert sol.op is None
            assert sol.residual_norm == 0.0

    def test_rescaled_residual_definition(self):
        # independent recomputation of the five chi=0 residuals
        from randecon.gaussian import (gauss_moment_I,
                                       truncated_scale_moments)
        omega, kappa, ell, gamma, delta = 0.2, 0.4, 0.1, 0.7, 1.1
        params = EnsembleParams(n=1.5, pi=0.3, f=0.5, eps=0.1)
        w = np.sqrt(params.n * omega)
        m1 = mt = m2 = 0.0
        for x0, wx in ((0.0, 1 - params.pi), (1.0, params.pi)):
            b = (kappa - x0) / w
            m1 += wx * w * gauss_moment_I(1, b)
            mt += wx * w * gauss_moment_I(0, b)
            m2 += wx * w ** 2 * gauss_moment_I(2, b)
        _, s1, _, s2 = truncated_scale_moments(ell, gamma, delta, params.eps)
        want = np.array([
            ell - m1,
            delta - mt / w,
            gamma - np.sqrt(m2 - ell ** 2),
            omega - s2,
            kappa - ell - params.n * params.eps * s1,
        ])
        u = np.array([omega, kappa, ell, gamma, delta])
        np.testing.assert_allclose(rescaled_residual(u, params), want,
                                   atol=1e-12)

    def test_residual_domain_errors(self):
        bad = OrderParams(Omega=0.1, kappa=0.1, p=1.0, sigma=-1.0, chi=0.1,
                          chi_hat=1.0)
        with pytest.raises(DomainError):
            saddle_residual(bad, PARAMS)
        with pytest.raises(DomainError):
            rescaled_residual([0.1, 0.1, 0.1, -1.0, 1.0], PARAMS)


class TestSweep:
    def test_empty_grid(self):
        assert sweep([]) == []

    def test_branch_switches_once(self):
        # pi-grid crossing the transition at n=1, eps=0.1 (pi_c ~ 0.330)
        grid = [EnsembleParams(n=1.0, pi=pi, f=0.5, eps=0.1)
                for pi in np.linspace(0.45, 0.25, 21)]
        sols = sweep(grid)
        labels = [s.branch for s in sols]
        assert "failed" not in labels
        switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert switches == 1
        assert labels[0] == "industrial" and labels[-1] == "collapsed"


class TestRegularSystem:
    def test_industrial_rows_are_scaled_saddle_rows(self):
        op = TestMomentsM.OP
        u = [op.Omega, op.kappa, op.p * op.chi, op.sigma * op.chi,
             op.chi_hat * op.chi, op.chi]
        scale = np.array([op.chi, op.chi, op.chi, 1.0, 1.0, op.chi_hat])
        np.testing.assert_allclose(regular_residual(u, PARAMS),
                                   scale * saddle_residual(op, PARAMS),
                                   atol=1e-12)

    def test_chi_zero_rows_are_rescaled_rows(self):
        u = [0.2, 0.4, 0.1, 0.7, 1.1]
        params = EnsembleParams(n=1.5, pi=0.3, f=0.5, eps=0.1)
        resid = regular_residual([*u, 0.0], params)
        np.testing.assert_allclose(resid[:5], rescaled_residual(u, params),
                                   atol=1e-15)

    def test_continuous_at_chi_zero(self):
        # chi = 0 is an ordinary point: the residual moves by less than the
        # quadrature error of the clamp gap as chi -> 0
        params = EnsembleParams(n=2.0, pi=0.3, f=0.5, eps=0.1)
        u = np.array([0.3, 0.8, 0.7, 0.6, 0.9, 0.0])
        at_zero = regular_residual(u, params)
        u[5] = 1e-12
        assert np.max(np.abs(regular_residual(u, params) - at_zero)) < 1e-3


class TestPhaseLabels:
    def test_cold_n8_is_industrial(self):
        params = EnsembleParams(n=8.0, pi=0.65, f=0.5, eps=0.1)
        sol = solve_saddle(params)
        assert sol.branch == "industrial"
        assert sol.op.chi == pytest.approx(14.54, abs=0.01)
        assert sol.op.kappa == pytest.approx(11.57, abs=0.01)
        assert np.linalg.norm(saddle_residual(sol.op, params)) < 1e-9

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_cold_branch_agrees_with_critical_line(self, eps):
        wrong = []
        for n in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
            pi_c = solve_critical_pi(n, eps).pi_c
            for pi in (0.2, 0.5, 0.8):
                if abs(pi - pi_c) <= 0.02:
                    continue
                sol = solve_saddle(EnsembleParams(n=n, pi=pi, f=0.5, eps=eps))
                want = "industrial" if pi > pi_c else "collapsed"
                if sol.branch != want:
                    wrong.append((n, pi, sol.branch, pi_c))
        assert not wrong

    # no cold start reaches a root at these points and the chi = 0 switch
    # is hard to reach from them: pi_c alone settles the label
    @pytest.mark.parametrize("n,pi", [(1.0, 0.18), (1.5, 0.07),
                                      (1.849206349206349, 0.05),
                                      (1.972222222222222, 0.05),
                                      (4.0, 0.0), (6.0, 0.0), (8.0, 0.002)])
    def test_collapsed_where_cold_switch_fails(self, n, pi):
        assert pi < solve_critical_pi(n, 0.1).pi_c
        sol = solve_saddle(EnsembleParams(n=n, pi=pi, f=0.5, eps=0.1))
        assert sol.branch == "collapsed"

    def test_collapsed_at_large_n_small_eps(self):
        # pi_c is about 4e-5 here; the walk down in chi never reached chi = 0
        sol = solve_saddle(EnsembleParams(n=8.0, pi=0.0, f=0.5, eps=0.01))
        assert sol.branch == "collapsed"
        assert sol.op is None

    def test_labels_need_no_chi_zero_solve(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("solve_saddle made a chi = 0 solve")

        monkeypatch.setattr(replica._Search, "bordered", unreachable)
        monkeypatch.setattr(replica._Search, "switch", unreachable)
        sol = solve_saddle(EnsembleParams(n=1.0, pi=0.2, f=0.5, eps=0.1))
        assert sol.branch == "collapsed"
        # no cold start reaches this root; the anchor continuation does
        sol = solve_saddle(EnsembleParams(n=2.0, pi=0.1, f=0.5, eps=0.1))
        assert sol.branch == "industrial"

    def test_never_collapsed_without_pi_c(self, monkeypatch):
        def no_root(n, eps):
            raise NoRootError("no pi_c")

        monkeypatch.setattr(critical, "solve_critical_pi", no_root)
        with pytest.raises(NoConvergenceError):
            solve_saddle(EnsembleParams(n=1.0, pi=0.2, f=0.5, eps=0.1))
        sol = solve_saddle(EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1))
        assert sol.branch == "industrial"

    @pytest.mark.parametrize("n,pi_start", [(0.5, 0.70), (1.0, 0.45), (2.0, 0.20)])
    def test_branch_switch_on_critical_line(self, n, pi_start):
        switch = branch_switch_pi(n, 0.1, pi_start=pi_start)
        assert abs(switch - solve_critical_pi(n, 0.1).pi_c) < 1e-3

    def test_branch_switch_below_pi_c_raises(self):
        # pi_c(1, 0.1) is 0.33: pi_start is on the collapsed side
        with pytest.raises(NoConvergenceError, match="no industrial solution"):
            branch_switch_pi(1.0, 0.1, pi_start=0.2)

    @pytest.mark.parametrize("n", [3.0, 4.0, 8.0])
    def test_branch_switch_at_small_eps_reports_failure(self, n):
        # the walk down in chi may not reach chi = 0 here; it must then
        # raise, and otherwise land on pi_c
        try:
            switch = branch_switch_pi(n, 0.01)
        except NoConvergenceError:
            return
        assert abs(switch - solve_critical_pi(n, 0.01).pi_c) < 1e-5


    # which step settled each label (SaddleSolution.path)
    def test_path_warm(self):
        line = sweep([EnsembleParams(n=n, pi=0.65, f=0.5, eps=0.1)
                      for n in (2.0, 2.1)])
        assert [sol.path for sol in line] == ["cold 0", "warm"]

    def test_path_cold(self):
        sol = solve_saddle(EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1))
        assert (sol.branch, sol.path) == ("industrial", "cold 0")

    def test_path_collapsed(self):
        sol = solve_saddle(EnsembleParams(n=0.75, pi=0.2, f=0.5, eps=0.1))
        assert (sol.branch, sol.path) == ("collapsed", "pi_c")

    def test_path_anchor(self):
        sol = solve_saddle(EnsembleParams(n=0.75, pi=0.5, f=0.5, eps=0.1))
        assert (sol.branch, sol.path) == ("industrial", "anchor")

    def test_path_failed(self, monkeypatch):
        monkeypatch.setattr(replica, "_BUDGET", 2)
        sol, = sweep([EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)])
        assert (sol.branch, sol.path) == ("failed", "failed")


class TestFinalMomentsMemo:
    """replica._final_moments memoises the final-good quadrature, which
    reads only (kappa, n Omega, chi) and the rule; every answer keeps its
    bits."""

    @staticmethod
    def bits(sol):
        op = None if sol.op is None else sol.op.as_array().tobytes()
        return op, float(sol.residual_norm).hex(), sol.iterations, sol.path

    def answers(self, f):
        def at(n, pi, init=None):
            return solve_saddle(EnsembleParams(n=n, pi=pi, f=f, eps=0.1), init)

        cold, collapsed, anchor = at(2.0, 0.65), at(0.75, 0.2), at(0.9, 0.45)
        assert (cold.path, collapsed.path, anchor.path) == (
            "cold 0", "pi_c", "anchor")
        warm = at(2.1, 0.65, init=cold.op)
        line = sweep([EnsembleParams(n=n, pi=0.65, f=f, eps=0.1)
                      for n in (1.6, 1.8, 2.0, 2.2)])
        return ([self.bits(sol) for sol in (cold, warm, collapsed, anchor, *line)],
                branch_switch_pi(2.0, 0.1, f=f).hex())

    @pytest.mark.parametrize("f", [0.25, 1.0])
    def test_bypassed_memo_gives_the_same_bits(self, f, monkeypatch):
        memoised = self.answers(f)
        monkeypatch.setattr(replica, "_final_moments",
                            replica._final_moments.__wrapped__)
        assert self.answers(f) == memoised

    def test_swapped_rule_never_gets_the_other_rules_moments(self, monkeypatch):
        u = np.array([0.4, 0.5, 0.3, 0.2, 0.25, 0.6])
        bypass = replica._final_moments.__wrapped__
        rules = (replica._RULE, gauss_hermite_rule(240))
        got = []
        for rule in rules + rules:
            monkeypatch.setattr(replica, "_RULE", rule)
            r = regular_residual(u, PARAMS)
            with monkeypatch.context() as m:
                m.setattr(replica, "_final_moments", bypass)
                assert r.tobytes() == regular_residual(u, PARAMS).tobytes()
            got.append(r.tobytes())
        assert got[0] != got[1]

    def test_keys_that_compare_equal_give_the_same_moments(self):
        # +0.0 == -0.0 as keys; the field is the same at both
        bypass, rule = replica._final_moments.__wrapped__, replica._RULE
        for plus, minus in [((0.0, 0.6), (-0.0, 0.6)), ((0.3, 0.0), (0.3, -0.0))]:
            assert (bypass(*plus, 0.2, rule).tobytes()
                    == bypass(*minus, 0.2, rule).tobytes())

    def test_nan_never_hits(self):
        replica._final_moments.cache_clear()
        for _ in range(2):
            replica._final_moments(float("nan"), 0.6, 0.2, replica._RULE)
        assert replica._final_moments.cache_info().hits == 0

    def test_moments_are_read_only(self):
        moments = replica._final_moments(0.3, 0.6, 0.2, replica._RULE)
        with pytest.raises(ValueError):
            moments[0, 0] = 1.0

    def test_cold_solve_skips_a_quarter_of_the_quadratures(self, monkeypatch):
        # the difference columns in ell, gamma and delta reuse the moments
        # of the point they step from
        field, calls = replica.final_good_field, []
        monkeypatch.setattr(replica, "final_good_field",
                            lambda *a: calls.append(a) or field(*a))
        replica._final_moments.cache_clear()
        sol = solve_saddle(EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1))
        assert sol.branch == "industrial"
        assert len(calls) <= 0.75 * sol.iterations


class TestBudget:
    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(replica, "_BUDGET", 5)
        with pytest.raises(NoConvergenceError):
            solve_saddle(EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1))

    def test_sweep_records_failed_point(self, monkeypatch):
        monkeypatch.setattr(replica, "_BUDGET", 5)
        sol = sweep([EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)])[0]
        assert sol.branch == "failed" and sol.op is None

    @staticmethod
    def count_regular(monkeypatch):
        calls = []
        inner = replica._regular

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(replica, "_regular", counted)
        return calls

    def test_iterations_count_every_evaluation(self, monkeypatch):
        calls = self.count_regular(monkeypatch)
        # the first start misses here, so the count spans two solves
        sol = solve_saddle(EnsembleParams(n=6.0, pi=0.35, f=0.5, eps=0.01))
        assert sol.branch == "industrial"
        assert sol.iterations == len(calls) > 150

    def test_failed_sweep_point_reports_its_evaluations(self, monkeypatch):
        monkeypatch.setattr(replica, "_BUDGET", 5)
        calls = self.count_regular(monkeypatch)
        sol = sweep([EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)])[0]
        assert sol.branch == "failed"
        assert sol.iterations == len(calls) > 0

    def test_collapsed_iterations_are_the_search_evaluations(self, monkeypatch):
        calls = self.count_regular(monkeypatch)
        sol = solve_saddle(EnsembleParams(n=1.0, pi=0.2, f=0.5, eps=0.1))
        assert sol.branch == "collapsed"
        assert sol.iterations == len(calls) > 0
