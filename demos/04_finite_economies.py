"""One concrete economy, solved and certified.

The infinite-size theory makes sharp predictions; this script checks them
against an actual economy with a few dozen goods.  We draw random
technologies, solve the planner's problem directly with an interior-point
method, certify the solution as a competitive equilibrium (feasibility,
positivity, complementary slackness, Walras' law), and then average 60
samples to compare against the saddle-point values.
"""

import numpy as np

from randecon import (EnsembleParams, certify_equilibrium,
                      monte_carlo_observables, observable_set,
                      sample_economy, solve_equilibrium, solve_saddle)

PARAMS = EnsembleParams(n=2.0, pi=0.65, f=0.5, eps=0.1)
C = 50

print(__doc__)
econ = sample_economy(PARAMS, C, seed=4242)
print(f"one draw: C = {econ.C} goods, N = {econ.N} technologies")
eq = solve_equilibrium(econ)
print(f"planner optimum found, status = {eq.status}")
print(f"  mean scale {eq.s_star.mean():.4f}, "
      f"active technologies {(eq.s_star > 1e-6 * eq.s_star.max()).sum()}/{econ.N}")

print("\nequilibrium certificates:")
for name, (val, ok) in certify_equilibrium(econ, eq).items():
    shown = f"{val:.2e}" if isinstance(val, float) else str(val)
    print(f"  {'ok  ' if ok else 'FAIL'} {name} = {shown}")

print("\naveraging 60 draws against the infinite-size prediction:")
mc = monte_carlo_observables(PARAMS, C, instances=60, base_seed=99)
obs = observable_set(solve_saddle(PARAMS))
for name, got, err, want in (
        ("<s*>", mc.s_mean, mc.s_stderr, obs.s_mean),
        ("phi", mc.phi, mc.phi_stderr, obs.phi),
        ("<x*>", mc.x_mean, mc.x_stderr, obs.x_mean)):
    z = (got - want) / err
    print(f"  {name:5} finite {got:.4f} +/- {err:.4f}   "
          f"infinite {want:.4f}   ({z:+.1f} sigma)")
print("\nfinite economies of this size already sit within a few standard")
print("errors of the infinite-size law.")
