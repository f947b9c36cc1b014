"""How fast the machine runs around each call, from a reference computation.

The benchmark shares its CPUs with other tenants.  Their load makes the
same computation run up to twice as slow, in spells from under a second
to about a minute.  A run therefore times a short reference burst between
every two calls of its workload.  The burst does the kind of work the
workload does, without ``randecon``.  The speed around a call is the
burst's nominal time over its mean time near the call, and the call's time
is multiplied by it: reported times read as seconds at the speed where the
burst takes its nominal time.  The bursts' own time is left out of every
timed region.

"Near" is the call's own duration on either side of it, and at least the
bursts just before and just after it.  A short call is thus judged by the
instant it ran in; a long one, which spans many changes of speed, by the
mean over as many bursts as its neighbours give.

A burst is made of one or more of three parts, of 2-3 ms each:
small-array numpy arithmetic, 60 x 60 Cholesky solves (below OpenBLAS's
threading threshold, so BLAS threads do not change them) and one small
HiGHS LP.  Each workload names the parts that follow its own calls most
closely when the machine slows down.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

#: time of each part of the burst on an unloaded 2-vCPU Xeon VM (python
#: 3.11, numpy 2.4, scipy 1.17); a workload's speed uses the parts that do
#: the kind of work it does
NOMINAL_S = {"numpy": 1.8e-3, "cholesky": 1.65e-3, "lp": 3.0e-3}


class SpeedProbe:
    """Reference bursts timed through one run."""

    def __init__(self, parts):
        rng = np.random.default_rng(0)
        a = rng.random((60, 60))
        self._spd = a @ a.T + 60 * np.eye(60)
        self._rhs = np.ones(60)
        self._grid = np.linspace(-3.0, 3.0, 120)
        self._problem = (-rng.random(60), rng.random((30, 60)), np.ones(30))
        self._parts = [getattr(self, "_" + name) for name in parts]
        self._nominal = sum(NOMINAL_S[name] for name in parts)
        self.at = []          # when each burst ended (perf_counter)
        self.samples = []     # each burst's time over its nominal time
        self.spent = 0.0      # seconds spent in bursts

    def _numpy(self):
        x = self._grid
        for _ in range(300):
            x = np.exp(-0.5 * x * x) * 0.3 + np.sqrt(np.abs(x)) + x.sum() * 1e-6

    def _cholesky(self):
        for _ in range(36):
            cho_solve(cho_factor(self._spd), self._rhs)

    def _lp(self):
        c, a_ub, b_ub = self._problem
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")

    def sample(self):
        """Time one burst; called between two calls of the workload."""
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) / self._nominal)
        self.at.append(t1)
        self.spent += t1 - t0

    def speed(self, start=None, end=None):
        """Speed near the interval [start, end], or over the whole run.

        1 at the nominal burst time, below 1 on a slowed machine."""
        if start is None:
            return 1 / statistics.fmean(self.samples)
        near = end - start
        first = min(bisect.bisect_left(self.at, start - near),
                    max(bisect.bisect_right(self.at, start) - 1, 0))
        last = max(bisect.bisect_right(self.at, end + near),
                   min(bisect.bisect_left(self.at, end) + 1, len(self.at)))
        return 1 / statistics.fmean(self.samples[first:last])
