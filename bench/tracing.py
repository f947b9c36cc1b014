"""In-memory spans and counts at the boundaries of the library's layers.

The tracer replaces module attributes of ``randecon`` with timing wrappers
for the length of a traced job and puts the originals back afterwards.
Because the library calls its own functions through module globals
(``sweep`` -> ``solve_saddle``, ``lp_feasibility_fraction`` -> ``linprog``),
one wrapper per attribute sees every call, from the benchmark or from
inside the library.

Every wrapped call adds to a per-name count, total time and self time, the
duration minus the part of it covered by wrapped calls it made.  Calls
other than the high-frequency leaves also keep a span (id, name, start,
end, parent id, run id), written out by ``write_spans`` at the end.
"""
from __future__ import annotations

import functools
import inspect
import json
import time

from randecon import critical, ensemble, finite, gaussian, observables, replica

LAYERS = {"replica": replica, "gaussian": gaussian, "observables": observables,
          "critical": critical, "ensemble": ensemble, "finite": finite}

#: functions traced in their own module, so calls from inside it are seen too
OWN = {
    "replica": ("solve_saddle", "sweep", "branch_switch_pi",
                "saddle_residual", "rescaled_residual"),
    "observables": ("observable_set",),
    "critical": ("solve_critical_pi", "critical_line_sweep", "bracket_B"),
    "ensemble": ("sample_economy",),
    "finite": ("solve_equilibrium", "certify_equilibrium",
               "lp_feasibility_fraction", "pca_probe"),
}
#: outside libraries the finite layer calls: the LP solver and Cholesky
FOREIGN = {"finite": ("linprog", "cho_factor", "cho_solve")}
#: called thousands of times per solve: counted and timed, no span kept
LEAVES = {"replica.saddle_residual", "replica.rescaled_residual",
          "critical.bracket_B", "finite.cho_factor", "finite.cho_solve"}

_LP_KIND = {"finite.solve_equilibrium": "phase_one",
            "finite.lp_feasibility_fraction": "feasibility",
            "finite.pca_probe": "pca"}


def _layer_of(fn):
    for layer, module in LAYERS.items():
        if fn.__module__ == module.__name__:
            return layer
    return None


class Tracer:
    """Counts, times and spans of wrapped library calls in one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.spans = []      # (id, name, start, end, parent id, run id)
        self._stack = []     # open calls: [name, span id, time in children]
        self._next_id = 0
        self._patched = []

    def _add(self, name, dur, self_s):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += self_s

    def _wrap(self, module, attr, name):
        fn = getattr(module, attr)
        keep_span = name not in LEAVES and not name.startswith("gaussian.")
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self._add(name, dur, dur - frame[2])
                variant = self._variant(name, args, kwargs, parent)
                if variant:
                    self._add(f"{name}.{variant}", dur, dur - frame[2])
                if keep_span:
                    spans.append((span_id, name, t0, t1,
                                  parent[1] if parent else None, self.run_id))
            if name == "finite.linprog" and result.status != 0:
                self._add("finite.linprog.failed", 0.0, 0.0)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    @staticmethod
    def _variant(name, args, kwargs, parent):
        if name == "replica.solve_saddle":
            init = kwargs.get("init", args[1] if len(args) > 1 else None)
            return "cold" if init is None else "warm"
        if name == "finite.solve_equilibrium":
            econ = args[0] if args else kwargs["econ"]
            return f"N{round(econ.N / 100) * 100}"
        if name == "finite.linprog":
            return _LP_KIND.get(parent[0] if parent else None, "other")
        return None

    def install(self):
        for layer, names in OWN.items():
            for attr in names:
                self._wrap(LAYERS[layer], attr, f"{layer}.{attr}")
        for layer, names in FOREIGN.items():
            for attr in names:
                self._wrap(LAYERS[layer], attr, f"{layer}.{attr}")
        # calls that cross from one layer into another through an imported name
        for layer, module in LAYERS.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = _layer_of(obj)
                if home and home != layer:
                    self._wrap(module, attr, f"{home}.{attr}")
        return self

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w") as out:
            for span_id, name, t0, t1, parent, run_id in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                      "parent": parent, "run": run_id}) + "\n")


def _get(stats, name, i):
    return stats.get(name, (0, 0.0, 0.0))[i]


def layer_metrics(stats, traced_wall_s):
    """The per-layer metrics, computed from one traced job's stats."""
    calls = lambda name: _get(stats, name, 0)
    total = lambda name: _get(stats, name, 1)
    own = lambda name: _get(stats, name, 2)
    mean = lambda name, scale: total(name) / calls(name) * scale if calls(name) else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    group = lambda prefix, i: sum(v[i] for k, v in stats.items()
                                  if k.startswith(prefix) and k.count(".") == 1)

    evals = calls("replica.saddle_residual") + calls("replica.rescaled_residual")
    steps = calls("finite.cho_factor")
    eq_loop = total("finite.solve_equilibrium") - total("finite.linprog.phase_one")
    return {
        "replica.residual_evals": (evals, "count"),
        "replica.evals_per_solve": (ratio(evals, calls("replica.solve_saddle")), "count"),
        "replica.saddle_residual.calls": (calls("replica.saddle_residual"), "count"),
        "replica.rescaled_residual.calls": (calls("replica.rescaled_residual"), "count"),
        "replica.saddle_residual.us": (mean("replica.saddle_residual", 1e6), "us"),
        "replica.solve_saddle.calls": (calls("replica.solve_saddle"), "count"),
        "replica.solve_saddle.self_s": (own("replica.solve_saddle"), "s"),
        "replica.solve_saddle.cold_ms": (mean("replica.solve_saddle.cold", 1e3), "ms"),
        "replica.solve_saddle.warm_ms": (mean("replica.solve_saddle.warm", 1e3), "ms"),
        "replica.sweep.s": (total("replica.sweep"), "s"),
        "replica.branch_switch_pi.s": (total("replica.branch_switch_pi"), "s"),
        "gaussian.calls": (group("gaussian.", 0), "count"),
        "gaussian.self_s": (group("gaussian.", 2), "s"),
        "observables.observable_set.calls": (calls("observables.observable_set"), "count"),
        "observables.observable_set.s": (total("observables.observable_set"), "s"),
        "critical.solve_critical_pi.calls": (calls("critical.solve_critical_pi"), "count"),
        "critical.solve_critical_pi.s": (total("critical.solve_critical_pi"), "s"),
        "critical.solve_critical_pi.ms": (mean("critical.solve_critical_pi", 1e3), "ms"),
        "critical.bracket_B.calls": (calls("critical.bracket_B"), "count"),
        "finite.solve_equilibrium.calls": (calls("finite.solve_equilibrium"), "count"),
        "finite.solve_equilibrium.self_s": (own("finite.solve_equilibrium"), "s"),
        "finite.solve_equilibrium.N100_s": (mean("finite.solve_equilibrium.N100", 1), "s"),
        "finite.solve_equilibrium.N200_s": (mean("finite.solve_equilibrium.N200", 1), "s"),
        "finite.newton_steps": (steps, "count"),
        "finite.newton_steps_per_solve": (ratio(steps, calls("finite.solve_equilibrium")), "count"),
        "finite.newton_step_ms": (ratio(eq_loop, steps) * 1e3, "ms"),
        "finite.cholesky.s": (total("finite.cho_factor") + total("finite.cho_solve"), "s"),
        "finite.certify_equilibrium.s": (total("finite.certify_equilibrium"), "s"),
        "finite.lp.calls": (calls("finite.linprog"), "count"),
        "finite.lp.s": (total("finite.linprog"), "s"),
        "finite.lp.ms": (mean("finite.linprog", 1e3), "ms"),
        "finite.lp.failed": (calls("finite.linprog.failed"), "count"),
        "finite.lp.per_point": (ratio(calls("finite.linprog.feasibility"),
                                      calls("finite.lp_feasibility_fraction")), "count"),
        "finite.lp.feasibility_ms": (mean("finite.linprog.feasibility", 1e3), "ms"),
        "finite.lp.pca_ms": (mean("finite.linprog.pca", 1e3), "ms"),
        "finite.lp.phase_one_ms": (mean("finite.linprog.phase_one", 1e3), "ms"),
        "finite.lp_feasibility_fraction.s": (total("finite.lp_feasibility_fraction"), "s"),
        "finite.pca_probe.s": (total("finite.pca_probe"), "s"),
        "ensemble.sample_economy.calls": (calls("ensemble.sample_economy"), "count"),
        "ensemble.sample_economy.s": (total("ensemble.sample_economy"), "s"),
        "trace.wall_s": (traced_wall_s, "s"),
    }
