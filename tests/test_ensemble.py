import numpy as np
import pytest

from randecon.ensemble import (EconomyInstance, EnsembleParams, economy_draws,
                               intermediate_sweep_map, sample_economy)
from randecon.errors import DomainError


class TestEnsembleParams:
    def test_valid(self):
        p = EnsembleParams(n=1.5, pi=0.6, f=0.5, eps=0.1)
        assert (1 - p.f) * (1 - p.pi) == pytest.approx(0.5 * 0.4)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0.0, pi=0.5, f=0.5, eps=0.1),
        dict(n=1.0, pi=1.5, f=0.5, eps=0.1),
        dict(n=1.0, pi=0.5, f=-0.1, eps=0.1),
        dict(n=1.0, pi=0.5, f=0.5, eps=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            EnsembleParams(**kwargs)

    def test_with_(self):
        p = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        assert p.with_(pi=0.7).pi == 0.7
        assert p.pi == 0.5


class TestSampleEconomy:
    @pytest.mark.parametrize("n, pi, f, eps, C, seed", [
        (1.0, 0.5, 0.5, 0.1, 50, 0), (2.5, 0.3, 0.8, 0.01, 40, 3),
        (0.5, 0.0, 1.0, 0.1, 20, 77), (3.0, 1.0, 0.0, 0.001, 33, 2**31 - 1),
        (1.3, 0.65, 0.25, 0.1, 2, 9)])
    def test_thresholds_the_draws(self, n, pi, f, eps, C, seed):
        # lp_feasibility_fraction reads the draws without pi: sample_economy
        # must be them thresholded at pi and f, bit for bit, and they must
        # be q, then the endowment uniforms, then the preference uniforms
        params = EnsembleParams(n=n, pi=pi, f=f, eps=eps)
        econ = sample_economy(params, C, seed)
        q, u, v = economy_draws(params, C, seed)
        np.testing.assert_array_equal(econ.q, q)
        np.testing.assert_array_equal(econ.x0, (u < pi).astype(float))
        np.testing.assert_array_equal(econ.k, (v < f).astype(float))
        rng = np.random.default_rng(seed)
        raw = rng.normal(0.0, 1.0 / np.sqrt(C), size=q.shape)
        np.testing.assert_array_equal(
            q, raw - (raw.sum(axis=1, keepdims=True) + eps) / C)
        np.testing.assert_array_equal(u, rng.random(C))
        np.testing.assert_array_equal(v, rng.random(C))

    def test_shapes_and_rounding(self):
        econ = sample_economy(EnsembleParams(n=2.5, pi=0.5, f=0.5, eps=0.1),
                              C=40, seed=3)
        assert econ.N == 100 and econ.C == 40
        assert econ.q.shape == (100, 40)

    def test_sum_constraint(self):
        econ = sample_economy(EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1),
                              C=50, seed=11)
        np.testing.assert_allclose(econ.q.sum(axis=1), -0.1, atol=1e-12)

    def test_pi_one_all_primary(self):
        econ = sample_economy(EnsembleParams(n=1.0, pi=1.0, f=0.5, eps=0.1),
                              C=50, seed=0)
        assert np.all(econ.x0 == 1)

    def test_entry_variance_lln(self):
        C = 1000
        econ = sample_economy(EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1),
                              C=C, seed=5)
        var = econ.q.var()
        assert 0.9 / C < var < 1.1 / C

    def test_bernoulli_fractions(self):
        C = 10_000
        params = EnsembleParams(n=0.01, pi=0.3, f=0.6, eps=0.1)
        econ = sample_economy(params, C, seed=21)
        for vec, prob in ((econ.x0, 0.3), (econ.k, 0.6)):
            bound = 4 * np.sqrt(prob * (1 - prob) / C)
            assert abs(vec.mean() - prob) < bound

    def test_determinism(self):
        params = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        a = sample_economy(params, 30, seed=9)
        b = sample_economy(params, 30, seed=9)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.k, b.k)

    def test_preconditions(self):
        params = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        with pytest.raises(DomainError):
            sample_economy(params, 1, seed=0)
        with pytest.raises(DomainError):
            sample_economy(EnsembleParams(n=0.001, pi=0.5, f=0.5, eps=0.1),
                           C=10, seed=0)


class TestSerialization:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            EconomyInstance(N=2, C=2, eps=0.1, seed=0,
                            q=np.zeros((3, 2)), x0=np.zeros(2), k=np.zeros(2))


class TestIntermediateSweepMap:
    def test_i_zero_boundary(self):
        # i = 0 with f < 1 forces pi = 1
        params = intermediate_sweep_map(0.3, 0.4, 0.0)
        assert params.pi == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip(self):
        params = intermediate_sweep_map(0.3, 0.4, 0.35)
        assert (1 - params.f) * (1 - params.pi) == pytest.approx(0.35, abs=1e-12)
        assert params.f / params.n == pytest.approx(0.3, abs=1e-12)
        assert params.pi / params.n == pytest.approx(0.4, abs=1e-12)

    def test_n_decreasing_in_i(self):
        grid = np.linspace(0.0, 0.9, 19)
        ns = [intermediate_sweep_map(0.3, 0.4, i).n for i in grid]
        assert all(a > b for a, b in zip(ns, ns[1:]))

    def test_no_valid_triple(self):
        with pytest.raises(DomainError):
            intermediate_sweep_map(0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            intermediate_sweep_map(0.3, 0.4, 1.0)
