#!/usr/bin/env python3
"""Sensitivity self-test of the QAC benchmark.

    python3 perfbench/selftest.py [--seeds 1,2,3] [--seconds 10]

For each probed layer the test delays that layer's call by 20% of the
call's own median (qacbench --inject, a hook in the benchmark's code
only) and checks three things:

  1. the layer's per-layer metric rises by at least 10% in a traced run;
  2. op_ms.p50 on the workload where the layer is heavy rises by more
     than its BENCHMARK.json bound;
  3. op_ms.p50 on a workload where the layer is light moves by less than
     that bound.

Runs with and without the delay alternate, seed by seed.  Prints one row
per check and exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

# layer, --inject key, per-layer metric, heavy workload, light workload
PROBES = [
    ("edif.read", "edif.read", "edif.read_ms", "compile", "embed"),
    ("Sampler::sample", "sampler", "anneal.sample_ms", "sample", "compile"),
]
METRIC = "op_ms.p50"


def run(workload, seed, seconds, trace, inject=None):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"selftest: {' '.join(cmd)} reported failed checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def shift(workload, inject, seeds, seconds):
    """Median of op_ms.p50 with the delay over median without, minus 1."""
    base, slow = [], []
    for i, seed in enumerate(seeds):
        pair = [(base, None), (slow, inject)]
        for values, inj in (pair if i % 2 == 0 else reversed(pair)):
            values.append(run(workload, seed, seconds, 0, inj)[METRIC])
    return statistics.median(slow) / statistics.median(base) - 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101,102,103")
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"]
                 for m in json.load(f)["end_to_end"]}[METRIC]

    ok = True
    for layer, key, layer_metric, heavy, light in PROBES:
        inject = f"{key}=0.2"
        before = run(heavy, seeds[0], args.seconds, 1)[layer_metric]
        after = run(heavy, seeds[0], args.seconds, 1, inject)[layer_metric]
        checks = [
            (f"{layer_metric} on {heavy}", after / before - 1, ">=", 0.10),
            (f"{METRIC} on {heavy}",
             shift(heavy, inject, seeds, args.seconds), ">", bound),
            (f"{METRIC} on {light}",
             shift(light, inject, seeds, args.seconds), "<", bound),
        ]
        for what, moved, op, limit in checks:
            passed = {">=": moved >= limit, ">": moved > limit,
                      "<": abs(moved) < limit}[op]
            ok = ok and passed
            print(f"{layer:16s} {what:28s} moved {moved:+.3f} "
                  f"(want {op} {limit}) {'ok' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
