"""Print every metric of every workload: one untraced and one traced run each.

    python3 bench/report.py [--seed 1] [--seconds 20] [--workloads saddle-cold,lp-scan]

Prints the end-to-end metrics with their units (plus the fail fraction, the
tail percentile and the machine speed), the per-layer metrics, the ROADMAP
layer list, and the tracing overhead per workload: traced wall_s minus
untraced wall_s, both as timed (not speed-scaled).
Each run is a fresh ``bench/run.py`` process, started one after another.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEFAULT_SEED, LAYER_LIST, WORKLOADS  # noqa: E402  (imports no numpy)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    with open(os.path.join(ROOT, ".bench_out", "results.jsonl")) as ledger:
        return json.loads(ledger.readlines()[-1])


def table(title, names, columns, fmt="{:>14.6g}"):
    print(f"\n{title}")
    print(f"  {'metric':36s} {'unit':6s}" + "".join(f"{w:>14s}" for w in columns))
    for name, unit in names:
        cells = "".join(fmt.format(columns[w][name]) for w in columns)
        print(f"  {name:36s} {unit:6s}{cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    chosen = args.workloads.split(",")

    plain, traced = {}, {}
    for w in chosen:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)

    e2e = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in plain.items()}
    for w, r in plain.items():
        e2e[w]["fail_frac"] = r["failed"] / r["attempted"]
        e2e[w]["tail_percentile"] = r["call_tail_percentile"]
        e2e[w]["calls"] = r["calls"]
        e2e[w]["speed"] = r["speed"]
        e2e[w]["wall_s as timed"] = r["as_timed"]["wall_s"]
    first = plain[chosen[0]]["metrics"]
    table(f"end to end (seed {args.seed}, untraced, --seconds {args.seconds:g})",
          [(k, m["unit"]) for k, m in first.items()]
          + [("fail_frac", "1"), ("tail_percentile", "%"), ("calls", "count"),
             ("speed", "1"), ("wall_s as timed", "s")], e2e)

    layers = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()}
    for w in chosen:
        layers[w]["trace.overhead_s"] = layers[w]["trace.wall_s"] - e2e[w]["wall_s as timed"]
    table("per layer (traced run; trace.overhead_s = traced minus untraced wall_s, as timed)",
          [(k, m["unit"]) for k, m in traced[chosen[0]]["metrics"].items()]
          + [("trace.overhead_s", "s")], layers)

    print("\nROADMAP layer list")
    for label, name, w in LAYER_LIST:
        if w in layers:
            unit = traced[w]["metrics"][name]["unit"]
            print(f"  {label:36s} {layers[w][name]:>14.6g} {unit:4s} ({w})")

    print("\nfailed calls (first job of each untraced run)")
    for w, r in plain.items():
        for line in r["failures"]:
            print(f"  {w}: {line}")


if __name__ == "__main__":
    main()
