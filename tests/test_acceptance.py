"""End-to-end acceptance checks at desk-scale grids.

Each test prints a one-line verdict with the measured numbers so the
whole battery can be audited from the pytest log.  The geometry-probe
threshold test documents a measured shortfall in its failure message
rather than loosening the bound; see the repository notes for the
analysis.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from randecon import replica
from randecon.critical import solve_critical_pi
from randecon.ensemble import EnsembleParams, sample_economy
from randecon.finite import (certify_equilibrium, lp_feasibility_fraction,
                             monte_carlo_observables, pca_probe,
                             solve_equilibrium)
from randecon.gaussian import (erfc_half, gauss_hermite_rule, gauss_moment_I,
                               std_normal_pdf, truncated_scale_moments)
from randecon.observables import observable_set
from randecon.replica import branch_switch_pi, solve_saddle, sweep

BASE = EnsembleParams(n=1.0, pi=0.65, f=0.5, eps=0.1)


def industrial_sweep(n_grid, params):
    """Warm continuation from the most-developed end of the grid down."""
    order = sorted(n_grid, reverse=True)
    sols = sweep([params.with_(n=n) for n in order])
    return list(zip(order, sols))[::-1]


def test_criterion_1_finite_vs_replica():
    """Monte Carlo means of <s*> and phi track the analytic curves."""
    rows = []
    for n in (1, 2, 3, 4, 5):
        params = BASE.with_(n=float(n))
        sol = solve_saddle(params)
        obs = observable_set(sol)
        C = round(100 / n)
        mc = monte_carlo_observables(params, C=C, instances=100, base_seed=7000)
        # error bars are sample standard deviations (the finite-size
        # scatter of a single 100-instance realization), not SEM
        s_sd = mc.s_stderr * np.sqrt(100)
        phi_sd = mc.phi_stderr * np.sqrt(100)
        z_s = (mc.s_mean - obs.s_mean) / s_sd
        z_phi = (mc.phi - obs.phi) / phi_sd
        rows.append((n, z_s, z_phi))
    print("criterion 1 z-scores (n, z_s, z_phi):",
          [(n, round(a, 2), round(b, 2)) for n, a, b in rows])
    assert all(abs(z) < 3 for _, z, _ in rows), rows
    assert all(abs(z) < 3 for _, _, z in rows), rows


def _empirical_window(n, eps, pi_c):
    """Fraction-of-feasible scan on the 0.01 grid around pi_c."""
    C = round(100 / n)

    def fraction(pi):
        params = EnsembleParams(n=n, pi=pi, f=0.5, eps=eps)
        return lp_feasibility_fraction(params, C, trials=100,
                                       base_seed=11000).fraction

    grid_pi, grid_frac = [], []
    pi = round(pi_c, 2)
    while pi >= 0.0:
        frac = fraction(pi)
        grid_pi.insert(0, pi); grid_frac.insert(0, frac)
        if frac <= 0.05:
            break
        pi = round(pi - 0.01, 2)
    pi = round(pi_c + 0.01, 2)
    while pi <= 1.0:
        frac = fraction(pi)
        grid_pi.append(pi); grid_frac.append(frac)
        if frac >= 0.95:
            break
        pi = round(pi + 0.01, 2)
    return np.array(grid_pi), np.array(grid_frac)


def test_criterion_2_critical_line_vs_lp():
    """Analytic pi_c sits inside the finite-size LP transition window."""
    for eps in (0.01, 0.1):
        for n in (0.5, 1.0, 2.0):
            pi_c = solve_critical_pi(n, eps).pi_c
            pis, fracs = _empirical_window(n, eps, pi_c)
            lo, hi = pis[0], pis[-1]
            assert fracs[0] <= 0.05 and fracs[-1] >= 0.95, (n, eps, fracs)
            assert lo <= pi_c <= hi, (n, eps, pi_c, lo, hi)
            # interpolated fraction-0.5 crossing
            idx = int(np.argmax(fracs >= 0.5))
            p0, p1 = pis[idx - 1], pis[idx]
            f0, f1 = fracs[idx - 1], fracs[idx]
            cross = p0 + (0.5 - f0) * (p1 - p0) / (f1 - f0)
            print(f"criterion 2 (n={n}, eps={eps}): window [{lo}, {hi}], "
                  f"pi_c={pi_c:.4f}, 0.5-crossing={cross:.4f}")
            assert abs(cross - pi_c) <= 0.02, (n, eps, cross, pi_c)


def test_criterion_3_identities():
    """<x*> = pi - n eps <s*> and X_C + X_W = <x*>, both branches of the lab."""
    for n in (1.0, 2.0, 3.0, 5.0):
        sol = solve_saddle(BASE.with_(n=n))
        obs = observable_set(sol)
        # x_mean from conditional averages (independent quadratures)
        assert obs.consumption + obs.waste == pytest.approx(obs.x_mean,
                                                            abs=1e-9)
        assert obs.x_mean == pytest.approx(
            BASE.pi - n * BASE.eps * obs.s_mean, abs=1e-6)
    for seed in range(5):
        econ = sample_economy(BASE.with_(n=2.0), C=50, seed=seed)
        sol = solve_equilibrium(econ)
        pi_hat, n_hat = econ.x0.mean(), econ.N / econ.C
        assert sol.x_star.mean() == pytest.approx(
            pi_hat - n_hat * econ.eps * sol.s_star.mean(), abs=1e-6)
    print("criterion 3: identities hold at 4 analytic points and 5 instances")


def _mean_scale_curve(eps):
    grid = np.linspace(0.5, 8.0, 31)
    out = []
    for n, sol in industrial_sweep(grid, BASE.with_(eps=eps)):
        assert sol.branch == "industrial", (eps, n, sol.branch)
        out.append(observable_set(sol).s_mean)
    return grid, np.array(out)


def test_criterion_4_peak_structure():
    """The <s*>(n) curve peaks once, near n = 2, sharper for smaller eps."""
    peaks = {}
    for eps in (0.1, 0.01):
        grid, s = _mean_scale_curve(eps)
        interior = (s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])
        n_maxima = int(interior.sum())
        n_peak = grid[1 + int(np.flatnonzero(interior)[0])] if n_maxima else None
        print(f"criterion 4 (eps={eps}): {n_maxima} interior maxima, "
              f"peak at n={n_peak}, value={s.max():.4f}")
        assert n_maxima == 1, (eps, n_maxima)
        assert 1.5 <= n_peak <= 2.5, (eps, n_peak)
        peaks[eps] = s.max()
    assert peaks[0.01] > peaks[0.1]


def test_criterion_5_f_independence_and_line_agreement():
    """Branch switch is f-independent and matches the analytic line."""
    switches = {f: branch_switch_pi(1.0, 0.1, f=f, pi_start=0.45)
                for f in (0.25, 0.75)}
    print("criterion 5 switches:", switches)
    assert abs(switches[0.25] - switches[0.75]) < 0.005
    # 3-point n-grid agreement with the analytic critical line
    grid_checks = [(1.0, switches[0.25], 0.45), (0.5, None, 0.70),
                   (2.0, None, 0.20)]
    for n, switch, start in grid_checks:
        if switch is None:
            switch = branch_switch_pi(n, 0.1, f=0.5, pi_start=start)
        pi_c = solve_critical_pi(n, 0.1).pi_c
        print(f"criterion 5 (n={n}): switch={switch:.4f}, pi_c={pi_c:.4f}")
        assert abs(switch - pi_c) < 0.01, (n, switch, pi_c)


def test_criterion_6_kkt_walras_suite():
    """Certification battery on 50 industrial instances at N = 100."""
    params = BASE.with_(n=2.0)
    failures = []
    for seed in range(50):
        econ = sample_economy(params, C=50, seed=20_000 + seed)
        sol = solve_equilibrium(econ)
        cert = certify_equilibrium(econ, sol)
        bad = [name for name, (_, passed) in cert.items() if not passed]
        if bad:
            failures.append((seed, bad))
    print(f"criterion 6: {50 - len(failures)}/50 instances fully certified")
    assert not failures, failures


def test_criterion_7_geometry_probe():
    """Elongation of the feasible set approaching the transition.

    Both clauses of the criterion are asserted.  The monotonicity clause
    passes; the magnitude clause (lambda_max/N > 0.9 at the grid point
    nearest pi_c) is structurally out of reach for basic-solution
    sampling at N = 100, because a simplex vertex near the transition
    has only about 0.6 N nonzero coordinates and constant-zero
    coordinates enter the unit-diagonal correlation matrix as identity
    rows, capping lambda_max/N at the support fraction.  The assert is
    kept so the shortfall is visible rather than silently waived.
    """
    eps = 0.01
    pi_grid = (0.60, 0.50, 0.42, 0.36, 0.32, 0.29)
    lams = []
    for pi in pi_grid:
        params = EnsembleParams(n=1.0, pi=pi, f=0.5, eps=eps)
        rec = pca_probe(params, C=100, n_tech_draws=10, n_objective_draws=25,
                        base_seed=31_000)
        lams.append(rec.lambda_max_over_N)
    rho = spearmanr(pi_grid, lams).statistic
    print("criterion 7 lambda_max/N:", [round(v, 3) for v in lams],
          f"spearman={rho:.3f}")
    assert rho < -0.9, (pi_grid, lams, rho)
    assert lams[-1] > 0.9, (
        f"lambda_max/N at the grid point nearest the transition is "
        f"{lams[-1]:.3f}; vertex sampling at N=100 cannot reach 0.9 "
        f"(see notes on the support-fraction ceiling)")


def _quad_oracle(f, lo, hi, kink=None):
    points = [kink] if kink is not None and lo < kink < hi else None
    val, _ = quad(f, lo, hi, points=points, limit=400, epsabs=1e-12,
                  epsrel=1e-12)
    return val


def test_criterion_8_oracle_suite(monkeypatch):
    """1000 random closed-form evaluations vs adaptive quadrature."""
    rng = np.random.default_rng(88)
    checked = 0
    # half-Gaussian moments I_n
    for _ in range(150):
        x = rng.uniform(-8, 8)
        for order in (0, 1, 2):
            want = _quad_oracle(
                lambda t: (t + x) ** order * std_normal_pdf(t),
                max(-12, -x), 12)
            assert gauss_moment_I(order, x) == pytest.approx(want, abs=1e-8)
            checked += 1
    # psi and phi (Gaussian tail masses)
    for _ in range(150):
        b = rng.uniform(-6, 6)
        want = _quad_oracle(std_normal_pdf, b, 12)
        assert erfc_half(b / np.sqrt(2)) == pytest.approx(want, abs=1e-8)
        checked += 1
    # truncated scale moments (m0, m1, mt, m2)
    for _ in range(100):
        p = rng.uniform(-1, 2)
        sigma, chi_hat = rng.uniform(0.2, 2.5, size=2)
        eps = rng.uniform(0.01, 0.3)
        kink = p * eps / sigma
        s_of = lambda t: max(sigma * t - p * eps, 0.0) / chi_hat
        got = truncated_scale_moments(p, sigma, chi_hat, eps)
        for val, f in zip(got, (lambda t: float(sigma * t - p * eps > 0),
                                s_of,
                                lambda t: s_of(t) * t,
                                lambda t: s_of(t) ** 2)):
            want = _quad_oracle(lambda t: f(t) * std_normal_pdf(t), -12, 12,
                                kink=kink)
            assert val == pytest.approx(want, abs=1e-8)
            checked += 1
    # clamp-gap moments entering the saddle equations: the residual
    # kernel's non-final part (f = 0, chi = 0) with all weight on class x0
    for _ in range(50):
        x0 = float(rng.integers(2))
        kappa = rng.uniform(-1, 1.5)
        n_omega = rng.uniform(0.05, 2.0)
        w = np.sqrt(n_omega)
        got = replica._moments(n_omega, kappa, 0.0, (0.0, 1.0, 1.0),
                               1.0, x0, 0.0, 0.1)[:3]
        kink = (x0 - kappa) / w
        gap = lambda t: max(kappa + w * t - x0, 0.0)
        for val, f in zip(got, (gap, lambda t: gap(t) * t,
                                lambda t: gap(t) ** 2)):
            want = _quad_oracle(lambda t: f(t) * std_normal_pdf(t), -12, 12,
                                kink=kink)
            assert val == pytest.approx(want, abs=1e-8)
            checked += 1
    assert checked >= 1000
    # quadrature-node doubling at a converged point
    params = BASE.with_(n=3.0, pi=0.9)
    coarse = solve_saddle(params)
    monkeypatch.setattr(replica, "_RULE", gauss_hermite_rule(240))
    fine = solve_saddle(params, init=coarse.op)
    shift = np.max(np.abs(fine.op.as_array() - coarse.op.as_array()))
    print(f"criterion 8: {checked} oracle checks, node-doubling shift "
          f"{shift:.2e}")
    assert shift < 1e-7


def test_criterion_9_utility_and_waste_monotonicity():
    """Utility rises with development; waste falls past the peak."""
    params = BASE.with_(f=0.75)
    grid = np.linspace(0.5, 8.0, 31)
    utils, wastes = [], []
    for n, sol in industrial_sweep(grid, params):
        obs = observable_set(sol)
        utils.append(obs.utility)
        wastes.append(obs.waste)
    utils, wastes = np.array(utils), np.array(wastes)
    assert np.all(np.diff(utils) >= -1e-9), utils
    tail = wastes[grid > 2.5]
    assert np.all(np.diff(tail) < 0), tail
    print(f"criterion 9: utility spans [{utils[0]:.4f}, {utils[-1]:.4f}], "
          f"waste falls from {tail[0]:.4f} to {tail[-1]:.4f} past n=2.5")
