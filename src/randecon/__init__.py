"""Numerical laboratory for large random production economies.

The package has two legs that check each other: an analytic leg solving
the self-consistent order-parameter equations of the infinite-size limit
(``replica``, ``observables``, ``critical``), and a finite-size leg
solving sampled instances exactly (``finite``).  ``ensemble`` defines the
random-economy distribution both legs share; ``gaussian`` collects the
special functions and the quadrature rule the analytic leg is built on.
``observables`` reads the final goods off the same field as the saddle
equations (``replica.final_good_field``).
"""

__version__ = "0.1.0"

from .ensemble import (EconomyInstance, EnsembleParams, intermediate_sweep_map,
                       sample_economy)
from .errors import (DomainError, NoConvergenceError, NonFiniteError,
                     NoRootError, RandeconError)
from .gaussian import (QuadratureRule, gauss_hermite_rule, gauss_moment_I,
                       half_moments, truncated_scale_moments)
from .replica import (OrderParams, SaddleSolution, branch_switch_pi,
                      solve_saddle, sweep)
from .observables import (ObservableSet, active_fraction, goods_density,
                          observable_set, scale_density)
from .critical import (CriticalPoint, bracket_B, critical_line_sweep,
                       solve_critical_pi)
from .finite import (EquilibriumSolution, FeasibilityRecord, GeometryRecord,
                     MonteCarloSummary, certify_equilibrium,
                     lp_feasibility_fraction, monte_carlo_observables,
                     pca_probe, solve_equilibrium)

__all__ = [name for name in dir() if not name.startswith("_")]
