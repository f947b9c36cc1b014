"""Run one benchmark workload of randecon and print its metrics.

    python3 bench/run.py --workload saddle-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``src/`` is put on the path, so the
package need not be installed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the same numbers in a
table, with the environment and every failed call.  Each run also appends
its full record to ``.bench_out/results.jsonl``; a traced run writes its
spans to ``.bench_out/``.  See ``bench/README.md``.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("saddle-cold", "saddle-sweep", "equilibrium", "lp-scan")
DEFAULT_SEED = 1
#: confirms a claimed gain on inputs not used while the change was written
HELD_OUT_SEED = 1009
SETUP_PROBES = 5
TAIL_ABOVE = 10   # calls that must lie above the reported tail latency

#: the layer list of ROADMAP.md: (label, metric, workload that measures it)
LAYER_LIST = (
    ("one saddle-residual evaluation", "replica.saddle_residual.us", "saddle-cold"),
    ("cold solve_saddle", "replica.solve_saddle.cold_ms", "saddle-cold"),
    ("warm solve_saddle", "replica.solve_saddle.warm_ms", "saddle-sweep"),
    ("one solve_critical_pi", "critical.solve_critical_pi.ms", "saddle-sweep"),
    ("one barrier-Newton step", "finite.newton_step_ms", "equilibrium"),
    ("solve_equilibrium at N=100", "finite.solve_equilibrium.N100_s", "equilibrium"),
    ("solve_equilibrium at N=200", "finite.solve_equilibrium.N200_s", "equilibrium"),
    ("one lp_feasibility_fraction LP", "finite.lp.feasibility_ms", "lp-scan"),
    ("one pca_probe LP", "finite.lp.pca_ms", "lp-scan"),
)

END_TO_END_UNITS = {"wall_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out to confirm claims)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget: jobs are repeated while the next "
                             "one is expected to end within it (at least one job)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap calls per workload, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args, probe):
    """(start, seconds) of fresh processes, each timed to its first call.

    Speed samples are taken before and after each one."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--probe-setup"]
    times = []
    probe.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        times.append((t0, t1 - t0))
        probe.sample()
    return times


def tail_latency(latencies):
    """(value, percentile): the highest percentile with TAIL_ABOVE calls above it."""
    ordered = sorted(latencies)
    # with too few calls for TAIL_ABOVE to lie above any of them: the maximum
    idx = len(ordered) - TAIL_ABOVE - 1 if len(ordered) > TAIL_ABOVE else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def time_metrics(jobs, job_times, setup, speed):
    """wall_s, call_p50_ms, call_tail_ms and setup_s of one run.

    Each timed interval is multiplied by ``speed(start, end)``.  Time a
    job spends outside its records (loop overhead) takes the run's mean
    speed, ``speed()``.  Per job, then the median over jobs: the metrics
    then keep their meaning however many jobs fit in the run."""
    walls, p50s, tails = [], [], []
    for records, job_s in zip(jobs, job_times):
        scaled = [r.seconds * speed(r.start, r.start + r.seconds) for r in records]
        outside = job_s - sum(r.seconds for r in records)
        walls.append(sum(scaled) + outside * speed())
        calls = [t for r, t in zip(records, scaled) if r.unit]
        p50s.append(statistics.median(calls))
        tails.append(tail_latency(calls)[0])
    return {"wall_s": statistics.median(walls),
            "call_p50_ms": statistics.median(p50s) * 1e3,
            "call_tail_ms": statistics.median(tails) * 1e3,
            "setup_s": statistics.median(dt * speed(t0, t0 + dt) for t0, dt in setup)}


def describe(rec):
    args = rec.args
    if "params" in args:
        p = args["params"]
        where = f"n={p.n:.4g} pi={p.pi:.4g} eps={p.eps:g}"
        if "C" in args:
            where += f" C={args['C']}"
    else:
        where = " ".join(f"{k}={v:.4g}" for k, v in args.items())
    return f"{rec.kind} {where}"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "randecon", "__init__.py")):
        print(f"run.py: no randecon sources at {SRC}", file=sys.stderr)
        return 2
    # randecon is imported before anything else loads numpy, so start-up
    # configuration done by the package (BLAS threads, say) is what is measured
    sys.path.insert(0, SRC)
    import randecon  # noqa: F401
    import environment
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics

    inputs = workloads.make_inputs(args.workload, args.seed, args.size == "tiny")
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    # a traced run reports times as timed: its spans need no bursts among them
    probe = None if args.trace else SpeedProbe(workloads.SPEED_PARTS[args.workload])
    pause = probe.sample if probe else (lambda: None)
    setup = measure_setup(args, probe) if probe else None

    run_id = f"{args.workload}:{args.seed}:{os.getpid()}"
    tracer = Tracer(run_id).install() if args.trace else None
    jobs, job_times = [], []
    start = time.perf_counter()
    try:
        while True:
            paused = probe.spent if probe else 0.0
            t0 = time.perf_counter()
            jobs.append(workloads.run_job(args.workload, inputs, pause))
            job_times.append(time.perf_counter() - t0
                             - ((probe.spent - paused) if probe else 0.0))
            expected_end = time.perf_counter() - start + statistics.median(job_times)
            if tracer or expected_end > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    oracle = workloads.Oracle()
    failures = [workloads.check(records, oracle) for records in jobs]
    attempted = sum(len(records) for records in jobs)
    failed = sum(len({id(f.record) for f in job}) for job in failures)
    correct = not any(f.invariant for job in failures for f in job)
    per_job = [[r.seconds for r in records if r.unit] for records in jobs]
    calls, tail_pct = len(per_job[0]), tail_latency(per_job[0])[1]

    if tracer:
        raw, speed = None, None
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics(tracer.stats, job_times[0]).items()}
    else:
        raw = time_metrics(jobs, job_times, setup, lambda *interval: 1.0)
        values = time_metrics(jobs, job_times, setup, probe.speed)
        speed = probe.speed()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    env = environment.record(ROOT, args.workload, args.seed)

    blas = "; ".join(f"{b['library']} ({b['bundled_with']}) {b.get('threads', '?')} threads"
                     for b in env["blas"]) or "no OpenBLAS found"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(jobs)} job(s) of {calls} calls")
    print(f"environment: nproc {env['nproc']}; python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}; commit {env['commit']}; BLAS {blas}")
    for name, m in metrics.items():
        as_timed = f"   ({raw[name]:.6g} as timed)" if raw and name in raw else ""
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{as_timed}")
    if not tracer:
        print(f"  {'  (machine speed, run mean)':36s} {speed:>14.4g}    "
              f"(each time above is as timed x the speed around it; "
              f"{len(probe.samples)} bursts)")
        above = calls - round(tail_pct * calls / 100)
        print(f"  {'  (tail percentile)':36s} {tail_pct:>14.4g} %  "
              f"({calls} calls per job, {above} above)")
    print(f"  {'fail_frac':36s} {failed / attempted:>14.4g}    "
          f"({failed} of {attempted} attempted failed; correct={correct})")
    for f in failures[0]:
        kind = "invariant" if f.invariant else "failed"
        print(f"  {kind}: {describe(f.record)}: {f.reason}")
    if tracer:
        print("layer list (0 where this workload does not reach the layer):")
        for label, name, _ in LAYER_LIST:
            print(f"  {label:36s} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
        print(f"  traced wall_s {job_times[0]:.6g} s; tracing overhead = this minus "
              f"wall_s of an untraced run (bench/report.py prints it)")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as ledger:
        ledger.write(json.dumps({
            "environment": env, "trace": args.trace, "size": args.size,
            "seconds": args.seconds, "job_s": job_times, "calls": calls,
            "speed": speed, "speed_samples": probe.samples if probe else [], "as_timed": raw,
            "call_ms": [[round(t * 1e3, 3) for t in latencies] for latencies in per_job],
            "call_tail_percentile": tail_pct, "attempted": attempted, "failed": failed,
            "correct": correct, "metrics": metrics,
            "failures": [f"{describe(f.record)}: {f.reason}" for f in failures[0]],
        }) + "\n")
    if tracer:
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
