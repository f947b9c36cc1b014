"""The saddle-residual kernel against its former numpy statement, bit for bit.

The kernel forms the half-Gaussian moments of its three shifts on Python
floats (gaussian.half_moment_lists), builds the final-good field in place
(replica.final_good_field) and passes the solver point as floats
(_Search.to_u, replica._regular).  The oracles below are the expressions
the kernel replaced, kept verbatim: the three half moments from erfc_half
and std_normal_pdf on arrays, the field's two-branch np.where, the
residual on numpy scalars and a boolean-masked exp of the log coordinates.
Elementwise IEEE operations give the same bits in numpy and on floats, so
every result must match byte for byte, NaN for NaN, on seeded random
inputs and on the edge cases each form has to survive.  Both sides run on
the same machine, so this holds on any CPU.
"""
import math

import numpy as np
import pytest

from randecon import gaussian, replica
from randecon.ensemble import EnsembleParams
from randecon.gaussian import erfc_half, half_moment_lists, half_moments, std_normal_pdf

BASE = EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)


def oracle_half_moments(x):
    x = np.asarray(x, dtype=float)
    i0, pdf = erfc_half(x / -math.sqrt(2.0)), std_normal_pdf(x)
    return i0, x * i0 + pdf, (1.0 + x * x) * i0 + x * pdf


def oracle_field(kappa, n_omega, chi, rule):
    a = np.array([[0.0 - kappa], [1.0 - kappa]]) - np.sqrt(n_omega) * rule.nodes
    root = np.sqrt(np.maximum(a * a + 4.0 * chi, 0.0))
    return a, np.where(a > 0, 2.0 * chi / (root + a), 0.5 * (root - a))


def oracle_final_moments(kappa, n_omega, chi, rule):
    _, g = oracle_field(kappa, n_omega, chi, rule)
    t, wt = rule.nodes, rule.weights
    return np.array([g @ wt, g @ (wt * t), (g * g) @ wt])


def oracle_moments(omega, kappa, chi, scale, n, pi, f, eps):
    p, sigma, chi_hat = scale
    n_omega = n * omega
    w = np.sqrt(n_omega)
    i0, i1, i2 = (m.tolist() for m in oracle_half_moments(
        np.array([kappa / w, (kappa - 1.0) / w, -p * eps / sigma])))
    weights = np.array([1.0 - pi, pi])
    m = (np.array([[w * i1[0], w * i1[1]], [w * i0[0], w * i0[1]],
                   [n_omega * i2[0], n_omega * i2[1]]]) @ weights).tolist()
    if f != 0 and chi != 0.0:
        final = oracle_final_moments(kappa, n_omega, chi, replica._RULE) @ weights
        m = [f * x + (1.0 - f) * y for x, y in zip(final.tolist(), m)]
    r = sigma / chi_hat
    return (*m, i0[2], r * i1[2], r * r * i2[2])


def oracle_regular(u, n, pi, f, eps):
    omega, kappa, ell, gamma, delta, chi = np.asarray(u, dtype=float).tolist()
    m1, mt, m2, phi, s1, s2 = oracle_moments(omega, kappa, chi, (ell, gamma, delta),
                                             n, pi, f, eps)
    return np.array([
        ell - m1,
        delta - mt / np.sqrt(n * omega),
        gamma - math.sqrt(max(m2 - ell * ell, 0.0)),
        omega - s2,
        kappa - ell - n * eps * s1,
        delta - n * phi,
    ])


def oracle_to_u(search, z):
    log = np.array([True, False, False, True, True, False])
    u = np.array(z, dtype=float)
    u[log] = np.exp(np.minimum(np.maximum(u[log], -700.0), 700.0))
    return u / search.scale


def oracle_search_residual(search, z, n, pi):
    p = search.params
    r = oracle_regular(oracle_to_u(search, z), n, pi, p.f, p.eps)
    return r if all(map(math.isfinite, r.tolist())) else np.full(6, 1e10)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


RNG_SEED = 20281


class TestHalfMomentLists:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 38.0, -38.0]

    def test_random_and_edge_shifts(self):
        rng = np.random.default_rng(RNG_SEED)
        shifts = [*rng.uniform(-40.0, 40.0, 300).tolist(), *self.EDGES]
        with np.errstate(all="ignore"):
            want = oracle_half_moments(np.array(shifts))
            got = half_moment_lists(shifts)
            arrays = half_moments(np.array(shifts))
            scalars = [half_moments(x) for x in shifts]
        for order in range(3):
            assert bits(got[order]) == bits(want[order])
            assert bits(arrays[order]) == bits(want[order])
            assert bits([s[order] for s in scalars]) == bits(want[order])
            assert all(type(v) is float for v in got[order])

    def test_three_shifts_as_the_kernel_takes_them(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            shifts = rng.normal(scale=5.0, size=3).tolist()
            want = oracle_half_moments(np.array(shifts))
            got = half_moment_lists(shifts)
            assert [bits(m) for m in got] == [bits(m) for m in want]

    def test_one_erfc_and_one_exp_call(self, monkeypatch):
        calls = []
        erfc, exp = gaussian.erfc, np.exp
        monkeypatch.setattr(gaussian, "erfc", lambda x: calls.append("erfc") or erfc(x))
        monkeypatch.setattr(gaussian.np, "exp", lambda x: calls.append("exp") or exp(x))
        half_moment_lists([0.1, -0.2, 0.3])
        assert sorted(calls) == ["erfc", "exp"]


class TestFinalGoodField:
    @staticmethod
    def check(kappa, n_omega, chi):
        rule = replica._RULE
        with np.errstate(all="ignore"):
            a_want, g_want = oracle_field(kappa, n_omega, chi, rule)
            got_rule, a, g = replica.final_good_field(kappa, n_omega, chi)
            moments = replica._final_moments.__wrapped__(kappa, n_omega, chi, rule)
            moments_want = oracle_final_moments(kappa, n_omega, chi, rule)
        assert got_rule is rule
        assert bits(a) == bits(a_want)
        assert bits(g) == bits(g_want)
        assert bits(moments) == bits(moments_want)

    def test_random_points(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(300):
            kappa = rng.normal(scale=3.0)
            n_omega = rng.uniform(0.0, 10.0)
            chi = rng.choice([rng.uniform(-2.0, 0.0), 10.0 ** rng.uniform(-20, 2)])
            self.check(kappa, n_omega, chi)

    def test_a_exactly_zero(self):
        # kappa = -(w t_j) puts a = 0 exactly at node j of the x0 = 0 row;
        # at n Omega = 0, kappa = 1 puts a = 0 on the whole x0 = 1 row
        w = math.sqrt(0.7)
        kappa = -(w * float(replica._RULE.nodes[40]))
        _, a, _ = replica.final_good_field(kappa, 0.7, 0.2)
        assert a[0, 40] == 0.0
        self.check(kappa, 0.7, 0.2)
        self.check(1.0, 0.0, 0.2)

    @pytest.mark.parametrize("chi", [0.0, -0.0, -1e-300, -0.5, -1e3, np.nan])
    def test_chi_zero_and_the_radicand_cut(self, chi):
        self.check(0.3, 0.7, chi)
        self.check(-2.0, 3.0, chi)

    @pytest.mark.parametrize("kappa, n_omega", [
        (np.nan, 0.7), (0.3, np.nan), (np.inf, 0.7), (-np.inf, 0.7),
        (0.3, 0.0), (0.3, np.inf), (0.3, -1.0)])
    def test_non_finite_and_degenerate_inputs(self, kappa, n_omega):
        self.check(kappa, n_omega, 0.2)


class TestRegularAndSearch:
    PARAMS = [BASE, BASE.with_(f=1.0, pi=0.2), BASE.with_(f=0.0, eps=0.01),
              BASE.with_(n=0.3, pi=1.0, eps=1e-4)]

    @pytest.mark.parametrize("params", PARAMS)
    def test_random_regular_points(self, params):
        rng = np.random.default_rng(RNG_SEED + 3)
        p = params
        for _ in range(150):
            u = [10.0 ** rng.uniform(-3, 2), rng.normal(scale=5.0),
                 rng.normal(scale=5.0), 10.0 ** rng.uniform(-3, 2),
                 10.0 ** rng.uniform(-3, 2),
                 rng.choice([0.0, rng.uniform(-2.0, 0.0), 10.0 ** rng.uniform(-14, 2)])]
            with np.errstate(all="ignore"):
                want = oracle_regular(u, p.n, p.pi, p.f, p.eps)
                got = replica._regular(u, p.n, p.pi, p.f, p.eps)
            assert isinstance(got, np.ndarray) and bits(got) == bits(want)

    def test_n_omega_zero(self):
        # the shifts kappa/sqrt(n Omega) are infinite: x / w gives inf or
        # NaN there, not an error, in both forms
        for u in ([0.0, 0.3, 0.3, 1.0, 1.0, 0.3], [0.0, 0.0, 0.3, 1.0, 1.0, 0.0],
                  [-0.0, -0.4, 0.3, 1.0, 1.0, 0.3]):
            with np.errstate(all="ignore"):
                want = oracle_regular(u, 2.0, 0.65, 0.5, 0.1)
                got = replica._regular(u, 2.0, 0.65, 0.5, 0.1)
            assert bits(got) == bits(want)

    def test_search_residual_random_points(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for params in self.PARAMS:
            s = replica._Search(params)
            for _ in range(100):
                z = rng.normal(scale=3.0, size=6)
                with np.errstate(all="ignore"):
                    want = oracle_search_residual(s, z, params.n, params.pi)
                    got = s.residual(z, params.n, params.pi)
                assert bits(got) == bits(want)
                assert bits(s.to_u(z)) == bits(oracle_to_u(s, z))

    @pytest.mark.parametrize("z", [
        [750.0, 0.3, 0.03, 0.0, 0.0, 0.03],
        [-750.0, 0.3, 0.03, -701.0, 702.0, 0.03],
        [0.0, 0.03, 0.03, 700.5, -700.5, 0.0],
        [1e308, 0.03, 0.03, -1e308, np.inf, 0.03],
        [-np.inf, 0.03, 0.03, 0.0, 0.0, 0.03],
        [np.nan, 0.03, 0.03, 0.0, 0.0, 0.03],
        [np.nan] * 6,
    ])
    def test_search_residual_edges(self, z):
        # log coordinates past the +-700 cut, infinite and NaN ones, and
        # the all-NaN point of TestSearchResidual.test_every_call_counts
        s = replica._Search(BASE)
        with np.errstate(all="ignore"):
            want_u = oracle_to_u(s, z)
            want = oracle_search_residual(s, z, BASE.n, BASE.pi)
            got_u = s.to_u(np.array(z))
            got = s.residual(np.array(z), BASE.n, BASE.pi)
        assert bits(got_u) == bits(want_u)
        assert bits(got) == bits(want)
