#!/usr/bin/env python3
"""Build and run the QAC benchmark.

    python3 perfbench/run.py --workload compile|embed|sample \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first call configures and
builds perfbench/ (the repository's libraries plus the qacbench program)
into $CARGO_TARGET_DIR/qacbench, or .bench_build/qacbench when that is
unset; later calls rebuild only what changed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Metric names and units are checked against BENCHMARK.json;
per-layer metrics of layers a workload never calls are reported as 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no QAC sources (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "qacbench",
                  "-j4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))


def git_describe():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_metrics(result, trace, spec):
    """Every emitted metric must be declared with the same unit; the
    end-to-end set must be complete."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not declared in "
                 f"BENCHMARK.json")
    for name, unit in declared.items():
        if name in metrics:
            continue
        if not trace:
            fail(f"end-to-end metric {name} missing from the result")
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = dict(sorted(metrics.items()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", help="self-test only: layer=fraction")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "qacbench")
    build(build_dir)

    # Relative to ROOT, so the service socket path stays short.
    work_dir = os.path.relpath(
        os.path.join(build_dir, f"work-{os.getpid()}"), ROOT)
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work_dir))
    cmd = [os.path.join(build_dir, "qacbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-describe", git_describe()]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    if done.returncode != 0:
        fail(f"qacbench exited with code {done.returncode}")

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("qacbench printed no result")
    result = json.loads(lines[-1])
    check_metrics(result, args.trace == 1, spec)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
