"""Smoke test: every workload at tiny size, untraced and traced.

    python3 bench/smoke.py

Checks that each run exits 0 and that its last line is the result object,
with exactly the metrics BENCHMARK.json names, in its units.  Exits 1 and
lists the problems otherwise.  Takes well under a minute.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def problems_of(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"attempted={result['attempted']!r} failed={result['failed']!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(expected) ^ set(got)):
        problems.append(f"metric {name} {'missing' if name in expected else 'not in BENCHMARK.json'}")
    for name in set(expected) & set(got):
        if got[name]["unit"] != expected[name]:
            problems.append(f"{name}: unit {got[name]['unit']} != {expected[name]}")
        if not isinstance(got[name]["value"], (int, float)):
            problems.append(f"{name}: value {got[name]['value']!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bad = [f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}"] if names != list(WORKLOADS) else []
    for workload in WORKLOADS:
        for trace in (0, 1):
            bad += [f"{workload} --trace {trace}: {p}" for p in problems_of(workload, trace, spec)]
    for line in bad:
        print(line)
    print("smoke: ok" if not bad else f"smoke: {len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
