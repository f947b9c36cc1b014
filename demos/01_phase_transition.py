"""Where does a random economy start producing?

An economy drawn from the random ensemble has three knobs: the density of
technologies n, the fraction pi of primary goods (pure endowments that no
technology produces), and the fraction f of final goods (the ones consumers
value).  If primary goods are scarce, no combination of technologies can run
at positive scale without eating more of some good than exists, and the
economy sits idle.  This script walks the pi axis at fixed n and watches the
transition happen.  The saddle solver calls a point collapsed when it finds
no industrial root and pi lies at or below the analytic boundary pi_c; the
saddle-point branch switch, where the industrial branch reaches chi = 0,
is the independent check that the two agree.
"""

import numpy as np

from randecon import (EnsembleParams, branch_switch_pi, observable_set,
                      solve_critical_pi, solve_saddle, sweep)

N = 1.0
EPS = 0.1
F = 0.5

print(__doc__)

crit = solve_critical_pi(N, EPS)
print(f"analytic boundary at n={N}, eps={EPS}:  pi_c = {crit.pi_c:.6f}")
print(f"  (root residual {crit.residual:.1e})\n")

print("walking pi downward through the boundary (warm continuation):")
print(f"{'pi':>6} {'branch':>12} {'<s*>':>8} {'phi':>8} {'utility':>9}")
# warm continuation tracks the industrial branch toward the boundary;
# a few cold solves cover the collapsed side
pis = np.round(np.arange(0.60, 0.369, -0.01), 2)
shown = {0.60, 0.50, 0.45, 0.40, 0.38, 0.37, 0.33, 0.30, 0.25}
grid = [EnsembleParams(n=N, pi=float(pi), f=F, eps=EPS) for pi in pis]
sols = list(zip(pis, sweep(grid)))
sols += [(pi, solve_saddle(EnsembleParams(n=N, pi=pi, f=F, eps=EPS)))
         for pi in (0.33, 0.30, 0.25)]
for pi, sol in sols:
    if float(pi) not in shown:
        continue
    obs = observable_set(sol)
    util = f"{obs.utility:9.4f}" if np.isfinite(obs.utility) else "     -inf"
    print(f"{pi:6.3f} {sol.branch:>12} {obs.s_mean:8.4f} {obs.phi:8.4f}"
          f" {util}")

print()
switch = branch_switch_pi(N, EPS, f=F, pi_start=0.45)
print(f"saddle-point branch switch located at pi = {switch:.4f}")
print(f"difference from the analytic boundary: {abs(switch - crit.pi_c):.1e}")
print()
print("Below the boundary every activity shuts down (<s*> = phi = 0) and")
print("consumers are left with raw endowments only; log utility of the")
print("final goods that are simply absent diverges to -inf.  The switch is")
print("discontinuous: production starts at a strictly positive scale.")
