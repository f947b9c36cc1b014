import functools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

import randecon
from randecon import finite
from randecon.ensemble import (EconomyInstance, EnsembleParams, economy_draws,
                               sample_economy)
from randecon.errors import DomainError, NoConvergenceError
from randecon.finite import (ACTIVE_THRESHOLD, certify_equilibrium,
                             lp_feasibility_fraction, monte_carlo_observables,
                             pca_probe, solve_equilibrium, _top_eigenvalue)
from randecon.observables import observable_set
from randecon.replica import solve_saddle

PARAMS = EnsembleParams(n=3.0, pi=0.65, f=0.5, eps=0.1)


def toy_closed_cone():
    """Four goods: one primary, two final, one intermediate; two
    technologies chained so that the production cone closes at the origin."""
    eps = 0.1
    q = np.array([
        # primary, final A, final B, intermediate
        [-eps, 1.0, 0.0, -1.0],   # makes final A out of the intermediate
        [-eps, 0.0, -1.0, 1.0],   # makes the intermediate out of final B
    ])
    # rows must sum to -eps; adjust the primary column accordingly
    q[:, 0] -= q.sum(axis=1) + eps
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 1.0, 0.0])
    return EconomyInstance(N=2, C=4, eps=eps, seed=0, q=q, x0=x0, k=k)


def phase_one_status(econ):
    """Oracle of the status of ``solve_equilibrium``: an LP for the largest
    margin t with x0 + q^T s >= t over every good.  No margin above 1e-7
    means an empty interior, where s* = 0 and the economy is "infeasible"
    when a final good has no endowment; otherwise it is "optimal"."""
    k = econ.k.astype(bool)
    if not k.any():
        return "optimal"
    cap = econ.x0.sum() / econ.eps + 1.0
    res = linprog(np.r_[np.zeros(econ.N), -1.0],
                  A_ub=np.hstack([-econ.q.T, np.ones((econ.C, 1))]),
                  b_ub=econ.x0,
                  bounds=[(0.0, cap)] * econ.N + [(None, 0.25)],
                  method="highs-ds")
    assert res.status == 0, res.message
    if res.x[-1] > 1e-7:
        return "optimal"
    return "infeasible" if np.any(k & (econ.x0 <= 0)) else "optimal"


@pytest.fixture
def counted_lps(monkeypatch):
    """Every call of ``finite.linprog``, the name ``bench/tracing.py``
    wraps, counted by a wrapper around the module's own function."""
    calls, original = [], finite.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(finite, "linprog", counting_linprog)
    return calls


def draws_q(params, C, seeds):
    """The technology matrix q of the economy of each seed."""
    return [economy_draws(params, C, seed)[0] for seed in seeds]


def draw_of(a_ub, qs):
    """Index of the q whose -q^T heads ``a_ub``: the trial or technology
    draw an LP belongs to, whichever thread solves it."""
    return next(i for i, q in enumerate(qs)
                if np.array_equal(a_ub[:q.shape[1]], -q.T))


def fail_by_draw(params, C, n_tech_draws, fails):
    """A ``finite.linprog`` for ``pca_probe`` at base seed 0 whose k-th LP
    (from 0) of technology draw ``draw`` ends with status 4 when
    ``fails(draw, k)``.  One thread solves all LPs of a draw, in order."""
    qs = draws_q(params, C, [1000 * tech for tech in range(n_tech_draws)])
    counts, original = [0] * n_tech_draws, finite.linprog

    def linprog(*args):
        res = original(*args)
        draw = draw_of(args[1], qs)
        counts[draw] += 1
        if fails(draw, counts[draw] - 1):
            res.status, res.basis, res.message = 4, None, "Unknown"
        return res

    return linprog


class TestSolveEquilibrium:
    def test_no_final_goods(self):
        econ = sample_economy(PARAMS.with_(f=0.0), C=20, seed=1)
        sol = solve_equilibrium(econ)
        assert sol.objective == 0.0
        assert np.all(sol.s_star == 0.0)
        assert sol.status == "optimal"
        assert sol.newton_steps == 0

    def test_closed_cone_toy(self, monkeypatch):
        # the loop runs until it stalls; the factorisations it spent
        # before the LP confirmed the empty interior are counted
        factored = []

        def counting_cho_factor(*args, **kwargs):
            factored.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(finite, "cho_factor", counting_cho_factor)
        sol = solve_equilibrium(toy_closed_cone())
        assert np.all(sol.s_star == 0.0)
        assert sol.status == "infeasible"
        assert sol.objective == float("-inf")
        assert np.isnan(sol.kkt_residual)
        assert sol.newton_steps == len(factored) > 0

    def test_feasibility_and_positivity(self):
        econ = sample_economy(PARAMS, C=33, seed=7)
        sol = solve_equilibrium(econ)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x_star,
                                   econ.x0 + sol.s_star @ econ.q, atol=1e-8)
        assert sol.s_star.min() >= 0.0
        assert sol.x_star.min() >= -1e-8
        assert sol.kkt_residual < 1e-6

    def test_scale_bound(self):
        econ = sample_economy(PARAMS, C=33, seed=7)
        sol = solve_equilibrium(econ)
        assert sol.s_star.sum() <= econ.x0.sum() / econ.eps + 1e-6

    def test_determinism(self):
        econ = sample_economy(PARAMS, C=33, seed=12)
        a = solve_equilibrium(econ)
        b = solve_equilibrium(econ)
        assert np.array_equal(a.s_star, b.s_star)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # N=100: the Hessian is built and factored in one BLAS library,
        # so the thread count does not change a single bit of s*
        code = ("from randecon.ensemble import EnsembleParams, sample_economy\n"
                "from randecon.finite import solve_equilibrium\n"
                "params = EnsembleParams(n=1.0, pi=0.65, f=0.5, eps=0.1)\n"
                "econ = sample_economy(params, 100, 20001)\n"
                "print(solve_equilibrium(econ).s_star.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(randecon.__file__))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_newton_steps_per_level(self, monkeypatch):
        factored = []

        def counting_cho_factor(*args, **kwargs):
            factored.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(finite, "cho_factor", counting_cho_factor)
        econ = sample_economy(PARAMS, C=33, seed=7)
        sol = solve_equilibrium(econ)
        assert sol.newton_steps == len(factored)
        assert 0 < sol.newton_steps <= 60

    def test_cholesky_retry_with_shift(self, monkeypatch):
        factored = []

        def failing_once(*args, **kwargs):
            factored.append(1)
            if len(factored) == 5:
                raise np.linalg.LinAlgError("not positive definite")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(finite, "cho_factor", failing_once)
        econ = sample_economy(PARAMS, C=33, seed=7)
        sol = solve_equilibrium(econ)
        assert sol.newton_steps == len(factored)
        cert = certify_equilibrium(econ, sol)
        assert all(passed for _, passed in cert.values())

    # pi = 0.5.  f = 0.5: thin interiors on which a loop started from the
    # phase-one LP ran out of its 100 iterations.  f = 1: every good enters
    # the utility, so every slack w carries the log term; pricing final
    # goods by a dual of their own (w p = 1) rather than 1/w is reported to
    # break down on these.  The last: from iteration 20 on Mehrotra's
    # heuristic cycled between two states until the loop ran out
    # (_CYCLE_CENTRING breaks the cycle), on an interior that is not thin
    @pytest.mark.parametrize("n, f, eps, C, seed", [
        (0.8646570354980633, 0.5, 0.01, 55, 572100592),
        (0.9207845463400741, 0.5, 0.1, 75, 1848050794),
        (0.7064690883420115, 0.5, 0.1, 70, 1904241140),
        (0.7700094047403291, 0.5, 0.1, 75, 2010630370),
        (0.6796487776895048, 1.0, 0.1, 23, 907325282),
        (0.7084255695420378, 1.0, 0.01, 63, 1999489685),
        (0.7397995223885049, 1.0, 0.01, 30, 2042432157),
        (0.9169526593428265, 1.0, 0.1, 40, 1864525075),
        (0.5, 1.0, 0.1, 10, 207959249),
    ])
    def test_hard_instances_certify(self, n, f, eps, C, seed):
        econ = sample_economy(EnsembleParams(n=n, pi=0.5, f=f, eps=eps),
                              C=C, seed=seed)
        sol = solve_equilibrium(econ)
        assert sol.status == "optimal"
        assert all(passed for _, passed in
                   certify_equilibrium(econ, sol).values())
        assert sol.newton_steps <= 40

    @pytest.mark.parametrize("params, C, seed, status, lps", [
        pytest.param(PARAMS, 33, 7, "optimal", 0, id="feasible"),
        pytest.param(EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1), 29,
                     773660801, "infeasible", 1, id="empty-interior"),
    ])
    def test_lp_only_confirms_empty_interior(self, counted_lps, params, C,
                                             seed, status, lps):
        sol = solve_equilibrium(sample_economy(params, C=C, seed=seed))
        assert sol.status == status
        assert len(counted_lps) == lps
        if status == "infeasible":
            # confirmed at the stall test, not after the loop ran out
            assert sol.newton_steps == finite._STALL_ITER

    @settings(max_examples=40, deadline=None)
    @given(C=st.integers(10, 30), n=st.floats(0.5, 3.0),
           pi=st.floats(0.3, 0.8), f=st.sampled_from((0.5, 1.0)),
           eps=st.sampled_from((0.1, 0.01)), seed=st.integers(0, 2**31 - 1))
    @example(C=10, n=0.5, pi=0.5, f=1.0, eps=0.1, seed=207959249)   # cycled
    def test_status_matches_phase_one_oracle(self, C, n, pi, f, eps, seed):
        econ = sample_economy(EnsembleParams(n=n, pi=pi, f=f, eps=eps),
                              C=C, seed=seed)
        sol = solve_equilibrium(econ)
        assert sol.status == phase_one_status(econ)
        if sol.status == "optimal":
            assert all(passed for _, passed in
                       certify_equilibrium(econ, sol).values())
        else:
            assert np.isnan(sol.kkt_residual)

    def test_cholesky_failure_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(finite, "cho_factor", failing)
        with pytest.raises(NoConvergenceError):
            solve_equilibrium(sample_economy(PARAMS, C=33, seed=7))


def cone_lp(q, primary):
    """The cone LP of ``lp_feasibility_fraction``: a row for every good,
    without bound (+inf) on a primary good's row."""
    return (-np.ones(q.shape[0]), -q.T, np.where(primary, np.inf, 0.0),
            0.0, 1.0)


def lp_shapes(econ, rng):
    """LPs of ``finite`` on one economy, each as (c, a_ub, b_ub, lower,
    upper): the cone with only the non-primary rows (no rows when every
    good is primary), the cone with all C rows that
    ``lp_feasibility_fraction`` solves, phase one with its free t column,
    and a PCA LP with its cap row."""
    non_primary = econ.x0 == 0
    cap = econ.x0.sum() / econ.eps + 1.0
    obj = np.abs(rng.standard_normal(econ.N))
    obj /= np.linalg.norm(obj)
    return {
        "cone": (-np.ones(econ.N), -econ.q.T[non_primary],
                 np.zeros(int(non_primary.sum())), 0.0, 1.0),
        "full_cone": cone_lp(econ.q, ~non_primary),
        "phase_one": (np.r_[np.zeros(econ.N), -1.0],
                      np.hstack([-econ.q.T, np.ones((econ.C, 1))]), econ.x0,
                      np.r_[np.zeros(econ.N), -np.inf],
                      np.r_[np.full(econ.N, cap), 0.25]),
        "pca": (-obj, np.vstack([-econ.q.T, np.ones((1, econ.N))]),
                np.r_[econ.x0, max(econ.x0.sum(), 1.0) / econ.eps],
                0.0, np.inf),
    }


def scipy_lp(c, a_ub, b_ub, lower, upper):
    """The reference: the same LP through ``scipy.optimize.linprog``,
    which takes no +inf row bound, so those rows are left out."""
    bounds = np.column_stack([np.broadcast_to(lower, c.shape),
                              np.broadcast_to(upper, c.shape)])
    bounded = np.isfinite(b_ub)
    a_ub, b_ub = a_ub[bounded], b_ub[bounded]
    return linprog(c, A_ub=a_ub if a_ub.size else None,
                   b_ub=b_ub if a_ub.size else None, bounds=bounds,
                   method="highs-ds")


#: the decision each LP shape feeds: an open cone, an empty interior
DECISIONS = {"cone": lambda res: -res.fun > finite._OPEN_CONE,
             "full_cone": lambda res: -res.fun > finite._OPEN_CONE,
             "phase_one": lambda res: res.x[-1] <= 1e-7,
             "pca": lambda res: None}


class TestLinprog:
    """``finite.linprog`` against ``scipy.optimize.linprog``'s dual simplex.

    ``finite.linprog`` lets HiGHS choose: the primal simplex from a primal
    feasible start basis (the slack basis of a cone or PCA LP, or the
    optimal basis of an LP it relaxes), the dual simplex otherwise."""

    @settings(max_examples=30, deadline=None)
    @given(C=st.integers(10, 40), n=st.floats(0.5, 3.0),
           pi=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           eps=st.sampled_from((0.1, 0.01, 0.001)),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_scipy(self, C, n, pi, eps, seed):
        # scipy's highs-ds scales the model and finite.linprog does not:
        # the statuses, optima and decisions must agree at every eps
        econ = sample_economy(EnsembleParams(n=n, pi=pi, f=0.5, eps=eps),
                              C=C, seed=seed)
        for shape, lp in lp_shapes(econ, np.random.default_rng(seed)).items():
            got, want = finite.linprog(*lp), scipy_lp(*lp)
            assert got.status == want.status == 0, shape
            assert got.fun == pytest.approx(want.fun, rel=1e-9, abs=1e-12)
            assert DECISIONS[shape](got) == DECISIONS[shape](want), shape

    def test_cone_without_rows(self):
        econ = sample_economy(EnsembleParams(n=1.0, pi=1.0, f=0.5, eps=0.1),
                              C=20, seed=3)
        lp = lp_shapes(econ, np.random.default_rng(3))["cone"]
        assert lp[1].shape == (0, econ.N)
        got, want = finite.linprog(*lp), scipy_lp(*lp)
        assert got.status == want.status == 0
        assert got.fun == want.fun == -econ.N
        np.testing.assert_array_equal(got.x, np.ones(econ.N))

    def test_infeasible_is_not_optimal(self):
        # x1 + x2 <= -1 has no point with x >= 0
        lp = (np.ones(2), np.array([[1.0, 1.0]]), np.array([-1.0]), 0.0, 1.0)
        got, want = finite.linprog(*lp), scipy_lp(*lp)
        assert got.status == want.status == 2
        assert got.x is None and got.basis is None

    @pytest.mark.parametrize("c, b_ub", [(np.ones(3), np.ones(2)),
                                         (np.ones(2), np.ones(1))])
    def test_shape_mismatch_raises(self, c, b_ub):
        with pytest.raises(DomainError):
            finite.linprog(c, np.ones((2, 2)), b_ub, 0.0, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(C=st.integers(10, 60), n=st.floats(0.5, 3.0),
           pi=st.floats(0.05, 1.0), eps=st.sampled_from((0.1, 0.01, 0.001)),
           seed=st.integers(0, 2**31 - 1))
    def test_warm_start_matches_cold(self, C, n, pi, eps, seed):
        # the optimal basis of one objective and right-hand side starts
        # another LP over the same matrix; the optimum does not move
        econ = sample_economy(EnsembleParams(n=n, pi=pi, f=0.5, eps=eps),
                              C=C, seed=seed)
        rng = np.random.default_rng(seed)
        for shape, (c, a_ub, b_ub, lower, upper) in lp_shapes(econ, rng).items():
            first = finite.linprog(c, a_ub, b_ub, lower, upper)
            assert first.status == 0 and first.basis is not None, shape
            c2 = c * rng.random(c.shape)
            b2 = b_ub + rng.random(b_ub.shape)
            cold = finite.linprog(c2, a_ub, b2, lower, upper)
            warm = finite.linprog(c2, a_ub, b2, lower, upper, first.basis)
            assert warm.status == cold.status, shape
            assert warm.fun == pytest.approx(cold.fun, rel=1e-9, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(C=st.integers(10, 60), n=st.floats(0.5, 3.0),
           pis=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
           eps=st.sampled_from((0.1, 0.01, 0.001)),
           seed=st.integers(0, 2**31 - 1))
    def test_basis_of_smaller_pi_starts_the_relaxation(self, C, n, pis, eps,
                                                       seed):
        # the step of an ascending scan line: more primary goods free more
        # rows, so the last optimal basis is still primal feasible; from
        # it the cone LP gives the cold optimum and decision
        q, u, _ = economy_draws(EnsembleParams(n=n, pi=0.5, f=0.5, eps=eps),
                                C, seed)
        smaller, larger = cone_lp(q, u < pis[0]), cone_lp(q, u < pis[1])
        first = finite.linprog(*smaller)
        assert first.status == 0
        cold = finite.linprog(*larger)
        warm = finite.linprog(*larger, first.basis)
        assert warm.status == cold.status == 0
        assert warm.fun == pytest.approx(cold.fun, rel=1e-9, abs=1e-12)
        assert DECISIONS["cone"](warm) == DECISIONS["cone"](cold)
        assert cold.fun <= first.fun + 1e-12      # a relaxation

    def test_stalled_primal_simplex_falls_back_to_dual(self):
        # HiGHS's primal simplex, started at the slack basis of this cone,
        # stops on a degenerate vertex without an optimum
        q, u, _ = economy_draws(EnsembleParams(n=2.0, pi=0.5, f=0.5, eps=0.1),
                                30, 306)
        lp = cone_lp(q, u < 0.7666666666666666)
        got, want = finite.linprog(*lp), scipy_lp(*lp)
        assert got.status == want.status == 0
        assert got.fun == pytest.approx(want.fun, rel=1e-9, abs=1e-12)

    def test_failed_solve_is_retried_by_dual_simplex(self, monkeypatch):
        runs, original = [], finite._highs_solve

        def first_fails(options, *lp):
            runs.append((options, lp[-1]))
            res = original(options, *lp)
            if len(runs) == 1:
                res.status, res.x, res.basis = 4, None, None
            return res

        econ = sample_economy(PARAMS, C=20, seed=5)
        c, a_ub, b_ub, lower, upper = lp_shapes(
            econ, np.random.default_rng(5))["pca"]
        basis = finite.linprog(c, a_ub, b_ub, lower, upper).basis
        monkeypatch.setattr(finite, "_highs_solve", first_fails)
        got = finite.linprog(c, a_ub, b_ub, lower, upper, basis)
        assert got.status == 0
        assert runs == [(finite._LP_OPTIONS, basis), (finite._DUAL_OPTIONS, None)]

    def test_unusable_basis_raises(self):
        econ = sample_economy(PARAMS, C=20, seed=5)
        c, a_ub, b_ub, lower, upper = lp_shapes(
            econ, np.random.default_rng(5))["pca"]
        basis = finite.linprog(c, a_ub, b_ub, lower, upper).basis
        with pytest.raises(DomainError):       # one column too many
            finite.linprog(np.r_[c, 1.0], np.hstack([a_ub, a_ub[:, :1]]),
                           b_ub, lower, upper, basis)
        with pytest.raises(DomainError):       # one row too many
            finite.linprog(c, np.vstack([a_ub, a_ub[:1]]), np.r_[b_ub, 1.0],
                           lower, upper, basis)
        basis.row_status = [finite._highs.HighsBasisStatus.kBasic] * len(b_ub)
        with pytest.raises(DomainError):       # more basic than rows
            finite.linprog(c, a_ub, b_ub, lower, upper, basis)

    @pytest.mark.parametrize("where", ["c", "a_ub", "b_ub", "lower", "upper"])
    def test_nan_is_not_optimal(self, where):
        econ = sample_economy(PARAMS, C=20, seed=5)
        c, a_ub, b_ub, _, _ = lp_shapes(econ, np.random.default_rng(5))["pca"]
        lp = {"c": c, "a_ub": a_ub, "b_ub": b_ub,
              "lower": np.zeros(econ.N), "upper": np.full(econ.N, np.inf)}
        lp[where].flat[3] = np.nan
        assert finite.linprog(**lp).status != 0


def spd_matrix(N, seed):
    # q D q^T plus a diagonal, like the primal-dual Hessian, column-major
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((N, max(N // 2, 1)))
    hess = (q * rng.random(q.shape[1])) @ q.T + np.diag(rng.random(N))
    return np.asfortranarray(hess)


def boolean_mask_max_step(val, dv):
    shrink = dv < 0
    return min(1.0, float(np.min(-val[shrink] / dv[shrink], initial=np.inf)))


class TestLapackCholesky:
    @pytest.mark.parametrize("N", [1, 28, 100, 200])
    def test_same_bits_as_scipy(self, N):
        hess = spd_matrix(N, N)
        b = np.random.default_rng(N + 1).standard_normal(N)
        ours, scipys = finite.cho_factor(hess), cho_factor(hess)
        assert ours[1] == scipys[1]
        assert ours[0].tobytes() == scipys[0].tobytes()
        assert (finite.cho_solve(ours, b).tobytes()
                == cho_solve(scipys, b).tobytes())

    def test_indefinite_raises_and_leaves_input(self):
        hess = spd_matrix(28, 3)
        hess[5, 5] = -1.0
        before = hess.copy(order="F")
        with pytest.raises(np.linalg.LinAlgError):
            finite.cho_factor(hess)
        assert hess.tobytes() == before.tobytes()

    def test_solve_leaves_right_hand_side(self):
        factor = finite.cho_factor(spd_matrix(28, 4))
        b = np.arange(28.0)
        finite.cho_solve(factor, b)
        assert np.array_equal(b, np.arange(28.0))


class TestMaxStep:
    def test_full_when_nothing_shrinks(self):
        assert finite._max_step(np.zeros(3), np.array([0.0, -0.0, 2.0])) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 40))
    def test_matches_boolean_masks(self, data, size):
        val = data.draw(arrays(np.float64, size, elements=st.one_of(
            st.just(0.0), st.floats(1e-12, 1e3))))
        dv = data.draw(arrays(np.float64, size, elements=st.one_of(
            st.just(0.0), st.just(-0.0), st.floats(1e-6, 1e3),
            st.floats(-1e3, -1e-6))))
        ours = finite._max_step(val, dv)
        assert (np.float64(ours).tobytes()
                == np.float64(boolean_mask_max_step(val, dv)).tobytes())
        if np.all(dv >= 0):
            assert ours == 1.0


class TestCertification:
    @pytest.mark.parametrize("params, C, seed", [
        pytest.param(PARAMS, 33, 0, id="0"),
        pytest.param(PARAMS, 33, 1, id="1"),
        pytest.param(PARAMS, 33, 2, id="2"),
        pytest.param(PARAMS.with_(n=2.0), 100, 20001, id="N200"),
        pytest.param(PARAMS.with_(n=2.0), 200, 20000, id="N400"),
    ])
    def test_full_suite(self, params, C, seed):
        econ = sample_economy(params, C=C, seed=seed)
        sol = solve_equilibrium(econ)
        cert = certify_equilibrium(econ, sol)
        failing = {name: val for name, (val, passed) in cert.items()
                   if not passed}
        assert not failing

    # Instances of the benchmark's equilibrium workload (seed/instance 5/25,
    # 15/17, 17/41, 22/8, 24/35) with a non-final good of availability
    # between 1e-6 and 1e-3: a solver that ends with x_c p_c fixed at a
    # barrier weight prices that wasted good above the tolerance.
    @pytest.mark.parametrize("n, C, seed", [
        (1.0, 100, 934042756), (1.5, 67, 981420805), (1.0, 100, 354167756),
        (1.0, 100, 35520358), (2.0, 50, 713822301),
    ])
    def test_degenerate_goods_are_free(self, n, C, seed):
        econ = sample_economy(PARAMS.with_(n=n), C=C, seed=seed)
        sol = solve_equilibrium(econ)
        cert = certify_equilibrium(econ, sol)
        failing = {name: val for name, (val, passed) in cert.items()
                   if not passed}
        assert not failing

    def test_walras_law(self):
        econ = sample_economy(PARAMS, C=33, seed=4)
        sol = solve_equilibrium(econ)
        # budget saturation: duals . x* = duals . x0
        spent = sol.duals @ sol.x_star
        endowed = sol.duals @ econ.x0
        assert spent == pytest.approx(endowed, rel=1e-6)

    def test_capacity(self):
        econ = sample_economy(PARAMS, C=33, seed=4)
        sol = solve_equilibrium(econ)
        assert np.sum(sol.s_star > ACTIVE_THRESHOLD) <= econ.C

    def test_infeasible_solution_is_refused(self):
        # an empty-interior economy has no equilibrium prices; its
        # placeholder duals leave an activity with profit 0.34
        econ = sample_economy(EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1),
                              C=29, seed=773660801)
        sol = solve_equilibrium(econ)
        assert sol.status == "infeasible"
        assert np.isnan(sol.kkt_residual)
        with pytest.raises(DomainError, match="infeasible"):
            certify_equilibrium(econ, sol)


class TestMonteCarlo:
    def test_repeatability(self):
        a = monte_carlo_observables(PARAMS, C=20, instances=3, base_seed=50)
        b = monte_carlo_observables(PARAMS, C=20, instances=3, base_seed=50)
        assert a.s_mean == b.s_mean and a.phi == b.phi
        assert a.utility == b.utility

    def test_per_instance_identity(self):
        # mean(x*) = pi_hat - n_hat * eps * mean(s*) exactly, per instance
        for seed in (3, 4):
            econ = sample_economy(PARAMS, C=25, seed=seed)
            sol = solve_equilibrium(econ)
            pi_hat = econ.x0.mean()
            n_hat = econ.N / econ.C
            want = pi_hat - n_hat * econ.eps * sol.s_star.mean()
            assert sol.x_star.mean() == pytest.approx(want, abs=1e-6)

    def test_instance_minimum(self):
        with pytest.raises(DomainError):
            monte_carlo_observables(PARAMS, C=20, instances=1, base_seed=0)

    def test_failed_instances_are_counted_and_left_out(self, monkeypatch):
        # seeds 61 and 63 of 60-64 stall: the means are those of the rest
        original = finite.solve_equilibrium

        def stalls(econ):
            if econ.seed in (61, 63):
                raise NoConvergenceError("stalled")
            return original(econ)

        monkeypatch.setattr(finite, "solve_equilibrium", stalls)
        out = monte_carlo_observables(PARAMS, C=20, instances=5, base_seed=60)
        assert (out.instances, out.failures) == (5, 2)
        sols = [original(sample_economy(PARAMS, 20, seed)) for seed in (60, 62, 64)]
        assert out.s_mean == pytest.approx(np.mean([s.s_star.mean() for s in sols]),
                                           rel=1e-14)
        assert out.x_mean == pytest.approx(np.mean([s.x_star.mean() for s in sols]),
                                           rel=1e-14)

    def test_fewer_than_two_solved_raises(self, monkeypatch):
        original = finite.solve_equilibrium

        def only_first(econ):
            if econ.seed != 70:
                raise NoConvergenceError("stalled")
            return original(econ)

        monkeypatch.setattr(finite, "solve_equilibrium", only_first)
        with pytest.raises(NoConvergenceError, match="only 1 instances solved"):
            monte_carlo_observables(PARAMS, C=20, instances=3, base_seed=70)

    def test_collapsed_utility_sentinel(self):
        params = EnsembleParams(n=1.0, pi=0.05, f=0.5, eps=0.1)
        out = monte_carlo_observables(params, C=30, instances=3, base_seed=9)
        assert out.utility == float("-inf")


def extrapolate(params, plan, observables):
    """Intercepts a of o(N) = a + b/N, fitted by weighted least squares over
    the sizes N = n C of ``plan`` ((C, instances) pairs, base seed 90000),
    with their standard errors, for each (mean, stderr) field name pair of
    ``MonteCarloSummary`` in ``observables``."""
    runs = [monte_carlo_observables(params, C, instances, 90000)
            for C, instances in plan]
    assert all(mc.failures == 0 for mc in runs)
    design = np.array([[1.0, 1.0 / (params.n * C)] for C, _ in plan])
    fits = []
    for mean, stderr in observables:
        weights = np.array([getattr(mc, stderr) ** -2 for mc in runs])
        cov = np.linalg.inv(design.T @ (weights[:, None] * design))
        a, _ = cov @ design.T @ (weights * np.array([getattr(mc, mean)
                                                     for mc in runs]))
        # the intercept's standard error combines those of the four sizes
        fits.append((a, np.sqrt(cov[0, 0])))
    return fits


class TestFiniteSizeExtrapolation:
    """The two legs agree at N -> infinity to the Monte Carlo's resolution."""

    @pytest.mark.slow
    def test_phi_extrapolates_to_the_saddle_point(self):
        # phi(N) = a + b/N over N = n C in {50, 100, 200, 400}; fewer
        # instances at larger N keep it to ~10 s
        params = EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)
        plan = ((25, 400), (50, 400), (100, 200), (200, 100))
        [(a, se)] = extrapolate(params, plan, [("phi", "phi_stderr")])
        analytic = observable_set(solve_saddle(params)).phi
        assert analytic == pytest.approx(0.41737, abs=1e-5)
        assert abs(a - analytic) <= 3.0 * se

    @pytest.mark.slow
    def test_phi_and_scale_extrapolate_at_n_1(self):
        # the same sizes N at n = 1, about 12 s; phi and <s*> both
        params = EnsembleParams(n=1.0, pi=0.65, f=0.5, eps=0.1)
        plan = ((50, 400), (100, 400), (200, 200), (400, 100))
        fits = extrapolate(params, plan, [("phi", "phi_stderr"),
                                          ("s_mean", "s_stderr")])
        obs = observable_set(solve_saddle(params))
        assert (obs.phi, obs.s_mean) == pytest.approx((0.45964, 0.38769),
                                                      abs=1e-5)
        for (a, se), analytic in zip(fits, (obs.phi, obs.s_mean)):
            assert abs(a - analytic) <= 3.0 * se


@functools.cache
def per_pi_feasibility(params, C, trials, base_seed, threshold=1e-6):
    """Oracle of ``lp_feasibility_fraction``: one cone LP for every trial,
    nothing remembered between calls.  Returns (feasible, failures)."""
    feasible = failures = 0
    for idx in range(trials):
        econ = sample_economy(params, C, base_seed + idx)
        non_primary = econ.x0 == 0
        a_ub = -econ.q.T[non_primary]
        res = linprog(-np.ones(econ.N), A_ub=a_ub if a_ub.size else None,
                      b_ub=np.zeros(int(non_primary.sum())) if a_ub.size else None,
                      bounds=(0.0, 1.0), method="highs-ds")
        if res.status != 0:
            failures += 1
        elif -res.fun > threshold:
            feasible += 1
    return feasible, failures


#: scan lines as (params at any pi and f, base seed): line 0, and lines
#: that differ from it in one part of the remembered key
LINE = (EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1), 300)
OTHER_LINES = {"eps": (LINE[0].with_(eps=0.01), 300),
               "seed": (LINE[0], 301),
               "N": (LINE[0].with_(n=2.0), 300)}
LINES = (LINE, OTHER_LINES["N"])


def scan(line, pis, C, trials):
    params, seed = LINES[line]
    return [lp_feasibility_fraction(params.with_(pi=float(pi)), C, trials, seed)
            for pi in pis]


class TestFeasibilityFraction:
    @settings(max_examples=25, deadline=None)
    @given(C=st.integers(10, 30), other=st.sampled_from(sorted(OTHER_LINES)),
           calls=st.lists(st.tuples(st.booleans(),
                                    st.one_of(st.sampled_from((0.0, 1.0)),
                                              st.floats(0.0, 1.0)),
                                    st.sampled_from((0.25, 0.75))),
                          min_size=1, max_size=8))
    def test_matches_per_pi_oracle(self, C, other, calls):
        # any pi order, the ends of the line included, two lines interleaved
        for on_other, pi, f in calls:
            params, seed = OTHER_LINES[other] if on_other else LINE
            params = params.with_(pi=pi, f=f)
            rec = lp_feasibility_fraction(params, C, 6, seed)
            assert (rec.feasible_count, rec.failures) == per_pi_feasibility(
                params, C, 6, seed)
            assert 0 <= rec.lps <= rec.trials

    @pytest.mark.parametrize("other", sorted(OTHER_LINES))
    def test_lines_do_not_share_brackets(self, other):
        # a fine grid up and then down tightens every bracket to k*; the
        # next line must not read them
        pis = np.linspace(0.0, 1.0, 31)
        for order in (pis, pis[::-1]):
            for params, seed in (LINE, OTHER_LINES[other]):
                for pi in order:
                    point = params.with_(pi=float(pi))
                    rec = lp_feasibility_fraction(point, 30, 8, seed)
                    assert (rec.feasible_count, rec.failures) == (
                        per_pi_feasibility(point, 30, 8, seed))

    def test_every_lp_goes_through_module_linprog(self, counted_lps):
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        rec = lp_feasibility_fraction(params, C=40, trials=10, base_seed=520)
        assert len(counted_lps) == rec.lps > 0

    def test_repeat_at_one_point_solves_nothing(self, counted_lps,
                                                monkeypatch):
        # a trial is drawn only to solve its LP: a repeat at one point
        # draws and solves nothing, and a point the brackets settle draws
        # nothing either
        draws, original = [], finite.economy_draws

        def counting_draws(*args):
            draws.append(args[2])
            return original(*args)

        monkeypatch.setattr(finite, "economy_draws", counting_draws)
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        first = lp_feasibility_fraction(params, C=40, trials=10, base_seed=510)
        again = lp_feasibility_fraction(params, C=40, trials=10, base_seed=510)
        assert first.lps == 10 and again.lps == 0
        assert again.feasible_count == first.feasible_count
        assert len(draws) == len(counted_lps) == 10
        for pi in (0.0, 1.0, 0.4, 0.2, 0.6):
            lp_feasibility_fraction(params.with_(pi=pi), 40, 10, 510)
        assert len(draws) == len(counted_lps)

    def test_serial_scan_solves_the_lps_it_did_before(self, monkeypatch):
        # up a grid, then down its midpoints on a line no other test
        # scans; the per-call LP counts are those of the bracket on
        # primary counts that the pi bracket replaced, measured with it
        params = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        up = np.linspace(0.02, 0.80, 14)
        pis = np.r_[up, (up[1:] + up[:-1])[::-1] / 2]
        warm, original = [], finite.linprog

        def recording(*args):
            warm.append(args[5] is not None)
            return original(*args)

        monkeypatch.setattr(finite, "linprog", recording)
        recs = [lp_feasibility_fraction(params.with_(pi=float(pi)), 40, 12, 8100)
                for pi in pis]
        assert [r.lps for r in recs] == [12, 12, 10, 9, 10, 9, 8, 5, 4, 1, 1,
                                         0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 2,
                                         0, 0, 1, 0]
        assert [r.feasible_count for r in recs] == [
            0, 0, 1, 1, 2, 4, 6, 8, 11, 11, 12, 12, 12, 12, 12, 12, 12, 11,
            11, 9, 6, 6, 2, 1, 1, 1, 0]
        # every LP after a trial's first starts from its last optimal basis
        assert warm.count(False) == 12 and len(warm) == sum(r.lps for r in recs)

    def test_repeated_scan_starts_cold(self):
        # only the most recent line is remembered: B, A, B, A pays for
        # A's LPs twice
        pis = np.linspace(0.0, 1.0, 9)
        scan(1, pis, 30, 8)
        a_first = scan(0, pis, 30, 8)
        scan(1, pis, 30, 8)
        a_again = scan(0, pis, 30, 8)
        assert a_first == a_again          # lps included
        assert sum(r.lps for r in a_first) < 8 * len(pis)

    def test_concurrent_lines_give_serial_records(self):
        # more threads than cores, two per line, switching often: lost
        # bracket updates may cost LPs but must never change an answer
        pis = np.linspace(0.1, 0.9, 7)
        serial = [scan(line, pis, 30, 8) for line in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(scan, line, pis, 30, 8)
                           for line in (0, 1, 0, 1)]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for line, recs in zip((0, 1, 0, 1), threaded):
            assert all(r.lps <= r.trials for r in recs)
            assert ([replace(r, lps=0) for r in recs]
                    == [replace(r, lps=0) for r in serial[line]])

    def test_failure_statuses_are_recorded(self, monkeypatch):
        original = finite.linprog

        def time_limit(*args):
            res = original(*args)
            res.status, res.basis, res.message = 1, None, "Time limit reached"
            return res

        monkeypatch.setattr(finite, "linprog", time_limit)
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        rec = lp_feasibility_fraction(params, C=40, trials=3, base_seed=9540)
        assert rec.failure_statuses == ("Time limit reached",) * 3
        assert (rec.failures, rec.lps, rec.feasible_count) == (3, 3, 0)

    def test_failed_lps_are_counted_and_not_remembered(self, monkeypatch):
        # a line no other test scans, so the first call solves every trial;
        # the LPs of trials 1 and 2 fail, told apart by their matrices
        # because the threads solve them in no fixed order
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        want = per_pi_feasibility(params, 40, 10, 9530)
        qs = draws_q(params, 40, [9530 + idx for idx in range(10)])
        failed, original = {}, finite.linprog

        def some_fail(*args):
            res = original(*args)
            trial = draw_of(args[1], qs)
            if trial in (1, 2):
                failed[trial] = -res.fun > finite._OPEN_CONE
                res.status, res.basis = 4, None
            return res

        monkeypatch.setattr(finite, "linprog", some_fail)
        rec = lp_feasibility_fraction(params, C=40, trials=10, base_seed=9530)
        assert (rec.lps, rec.failures) == (10, 2)
        assert [failed[1], failed[2]] == [True, False]   # one open cone, one shut
        assert rec.feasible_count == want[0] - sum(failed.values())
        # no bracket was written for the failed trials: they solve again
        monkeypatch.setattr(finite, "linprog", original)
        again = lp_feasibility_fraction(params, C=40, trials=10, base_seed=9530)
        assert (again.lps, again.failures) == (2, 0)
        assert again.feasible_count == want[0]

    def test_pi_one(self):
        rec = lp_feasibility_fraction(PARAMS.with_(pi=1.0), C=30, trials=10,
                                      base_seed=0)
        assert rec.fraction == 1.0

    def test_deep_infeasible(self):
        params = EnsembleParams(n=1.0, pi=0.05, f=0.5, eps=0.1)
        rec = lp_feasibility_fraction(params, C=100, trials=20, base_seed=0)
        assert rec.fraction == 0.0

    def test_counts_consistent(self):
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        rec = lp_feasibility_fraction(params, C=60, trials=15, base_seed=3)
        assert rec.feasible_count <= rec.trials
        assert rec.fraction == rec.feasible_count / rec.trials

    def test_trials_precondition(self):
        with pytest.raises(DomainError):
            lp_feasibility_fraction(PARAMS, C=30, trials=0, base_seed=0)


class TestPowerIteration:
    def test_matches_dense_eigensolver(self):
        # lambda_max of the correlation matrix is the top squared singular
        # value of the standardized vertex cloud over the sample count
        rng = np.random.default_rng(8)
        verts = rng.standard_normal((60, 40)) @ rng.standard_normal((40, 40))
        z = (verts - verts.mean(axis=0)) / verts.std(axis=0)
        sigma = np.linalg.svd(z, compute_uv=False)[0]
        assert _top_eigenvalue(verts) == pytest.approx(
            sigma ** 2 / verts.shape[0], rel=1e-10)

    def test_rank_one_correlation(self):
        # perfectly colinear samples: correlation is all-ones, lambda = N
        rng = np.random.default_rng(8)
        verts = np.outer(rng.random(12), rng.random(30) + 0.5)
        assert _top_eigenvalue(verts) == pytest.approx(30.0, rel=1e-12)

    def test_zero_variance_coordinates(self):
        # constant coordinates enter as uncorrelated unit-diagonal rows, so
        # 10 colinear live coordinates among 30 give lambda = 10
        rng = np.random.default_rng(8)
        verts = np.zeros((12, 30))
        verts[:, :10] = np.outer(rng.random(12), rng.random(10) + 0.5)
        assert _top_eigenvalue(verts) == pytest.approx(10.0, rel=1e-12)


class TestPcaProbe:
    def test_every_lp_goes_through_module_linprog(self, counted_lps):
        params = EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1)
        pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                  base_seed=0)
        assert len(counted_lps) == 2 * 6

    def test_record_shape(self):
        params = EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1)
        rec = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                        base_seed=0)
        assert not rec.collapsed
        assert 1.0 <= rec.lambda_max <= rec.N + 1e-6
        assert 0.0 < rec.lambda_max_over_N <= 1.0

    def test_samples_count_the_vertices(self, monkeypatch):
        # an LP that fails adds no vertex to its draw's cloud, nor a sample
        params = EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1)
        rec = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                        base_seed=0)
        assert rec.samples == 2 * 6
        monkeypatch.setattr(finite, "linprog", fail_by_draw(
            params, 30, 2, lambda draw, k: (draw, k) == (0, 1)))
        rec = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                        base_seed=0)
        assert rec.samples == 2 * 6 - 1

    def test_warm_start_keeps_the_vertices(self, monkeypatch):
        # every LP but each technology draw's first starts from a basis;
        # dropping the bases gives the same clouds
        params = EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1)
        qs = draws_q(params, 30, [0, 1000])
        started, original = {0: [], 1: []}, finite.linprog

        def recording(*args):
            started[draw_of(args[1], qs)].append(args[5] is not None)
            return original(*args)

        monkeypatch.setattr(finite, "linprog", recording)
        warm = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                         base_seed=0)
        assert started[0] + started[1] == 2 * ([False] + 5 * [True])
        monkeypatch.setattr(finite, "linprog",
                            lambda *args: original(*args[:5], None))
        cold = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                         base_seed=0)
        assert warm.samples == cold.samples == 2 * 6
        assert warm.lambda_max == pytest.approx(cold.lambda_max, rel=1e-9)

    def test_lp_failures_are_counted(self, monkeypatch):
        # every third LP of each draw fails: 4 of 12, each costing its
        # draw a vertex
        params = EnsembleParams(n=1.0, pi=0.6, f=0.5, eps=0.1)
        calls = []
        monkeypatch.setattr(finite, "linprog", fail_by_draw(
            params, 30, 2, lambda draw, k: calls.append(1) or k % 3 == 2))
        rec = pca_probe(params, C=30, n_tech_draws=2, n_objective_draws=6,
                        base_seed=0)
        assert len(calls) == 12
        assert (rec.lp_failures, rec.samples) == (4, 8)
        assert rec.failure_statuses == ("Unknown",) * 4
        assert not rec.collapsed

    def test_closed_cone_is_collapsed(self):
        # no primary goods: summing the availability rows gives
        # -eps sum(s) >= 0, so every vertex is the origin whatever the
        # draw, and no draw has a cloud
        params = EnsembleParams(n=0.5, pi=0.0, f=0.5, eps=0.1)
        rec = pca_probe(params, C=20, n_tech_draws=2, n_objective_draws=3,
                        base_seed=1)
        assert rec.collapsed and rec.samples == 0 and rec.lp_failures == 0
        assert np.isnan(rec.lambda_max)

    def test_null_model_far_below_criterion(self):
        # isotropic vertex cloud: correlation spectrum stays near the
        # Marchenko-Pastur edge (1 + sqrt(N/M))^2, nowhere near N
        rng = np.random.default_rng(0)
        lam = _top_eigenvalue(rng.standard_normal((25, 100)))
        edge = (1 + np.sqrt(100 / 25)) ** 2
        assert lam / 100 < 0.9
        assert lam < 2.0 * edge

    def test_draw_preconditions(self):
        with pytest.raises(DomainError):
            pca_probe(PARAMS, C=30, n_tech_draws=1, n_objective_draws=5,
                      base_seed=0)


class TestLpThreads:
    """The LPs of one call are shared out over ``finite.lp_threads()``
    threads: the caller and the helper pool."""

    @staticmethod
    def scan_with_failures(monkeypatch, threads=None):
        # an ascending scan on a fresh line whose trials 3 and 7 fail with
        # their own messages, as records and the brackets it leaves, each
        # basis as its column and row statuses, and a PCA probe; on
        # ``threads`` threads (4 helpers at most, a pool of its own), or
        # the default pool
        params = EnsembleParams(n=1.0, pi=0.5, f=0.5, eps=0.1)
        qs = draws_q(params, 30, [8700 + idx for idx in range(12)])
        original = finite.linprog

        def linprog(*args):
            res = original(*args)
            trial = draw_of(args[1], qs)
            if trial in (3, 7):
                res.status, res.basis, res.message = 4, None, f"trial {trial}"
            return res

        with monkeypatch.context() as patch, ThreadPoolExecutor(4) as pool:
            if threads is not None:
                patch.setattr(finite, "lp_threads", lambda: threads)
                patch.setattr(finite, "_helper_pool", lambda: pool)
            probe = pca_probe(params.with_(pi=0.6), C=30, n_tech_draws=4,
                              n_objective_draws=5, base_seed=0)
            patch.setattr(finite, "linprog", linprog)
            finite._brackets.cache_clear()
            recs = [lp_feasibility_fraction(params.with_(pi=float(pi)), 30, 12,
                                            8700)
                    for pi in np.linspace(0.05, 0.95, 10)]
            brackets = {idx: (shut, open_, basis.col_status, basis.row_status)
                        for idx, (shut, open_, basis)
                        in finite._brackets(30, 30, 0.1, 8700).items()}
        return recs, brackets, probe

    @pytest.mark.parametrize("threads", [None, 5])
    def test_helpers_give_the_serial_records(self, monkeypatch, threads):
        # the default pool, and more threads than CPUs switching often
        serial = self.scan_with_failures(monkeypatch, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self.scan_with_failures(monkeypatch, threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        recs = serial[0]
        assert recs[0].failure_statuses == ("trial 3", "trial 7")
        assert sum(r.lps for r in recs) < 12 * len(recs)
        assert serial[2].lambda_max == threaded[2].lambda_max   # to the bit

    def test_earliest_exception_is_raised(self, monkeypatch):
        monkeypatch.setattr(finite, "lp_threads", lambda: 2)

        def fn(item):
            if item in (2, 5):
                raise ValueError(f"item {item}")
            return item

        for _ in range(20):
            with pytest.raises(ValueError, match="item 2"):
                finite._map(fn, list(range(8)))

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(finite, "lp_threads", lambda: 2)
        caller, helper_started = threading.get_ident(), threading.Event()

        def fn(item):
            if threading.get_ident() != caller:
                helper_started.set()
                raise ValueError(f"helper on item {item}")
            # hold the caller on its item until a helper has taken one
            assert helper_started.wait(timeout=60)
            return item

        with pytest.raises(ValueError, match="helper on item"):
            finite._map(fn, [0, 1])

    def test_busy_pool_does_not_hang_the_caller(self, monkeypatch):
        monkeypatch.setattr(finite, "lp_threads", lambda: 2)
        pool, release = finite._helper_pool(), threading.Event()
        busy = [pool.submit(release.wait, 60) for _ in range(pool._max_workers)]
        try:
            assert finite._map(lambda x: 2 * x, list(range(5))) == [0, 2, 4, 6, 8]
        finally:
            release.set()
        assert all(f.result(timeout=60) for f in busy)

    def test_calls_without_two_lps_leave_the_pool_alone(self, monkeypatch):
        # one LP runs on the calling thread, and a settled trial asks
        # nothing of the pool, not even the CPU count
        def untouchable(*args):
            raise AssertionError("the pool was touched")

        monkeypatch.setattr(finite, "lp_threads", untouchable)
        monkeypatch.setattr(finite, "_helper_pool", untouchable)
        monkeypatch.setattr(os, "cpu_count", untouchable)
        params = EnsembleParams(n=1.0, pi=0.4, f=0.5, eps=0.1)
        one = lp_feasibility_fraction(params, C=40, trials=1, base_seed=8800)
        none = lp_feasibility_fraction(params, C=40, trials=1, base_seed=8800)
        assert (one.lps, none.lps) == (1, 0)
        assert none.feasible_count == one.feasible_count
