#!/bin/sh
# Run every bench binary once, validate its JSON artifact, and check
# EXPERIMENTS.md against what the benches just printed.
#
# This script runs every bench_* binary in a scratch directory with
# QAC_BENCH_SMOKE=1, which only the throughput benches (bench_sim,
# bench_ising_kernel) read to shrink their workload; the paper benches
# run the one size EXPERIMENTS.md reports.  It checks each exit status
# and that the emitted BENCH_<name>.json parses, and prints each
# bench's wall seconds.  Then scripts/experiments.py renders
# EXPERIMENTS.md from the captured stdout: any block that differs
# outside its "(host-dependent)" sections fails the smoke, with the
# bench's name and a unified diff of the block.
#
# When a tools directory and an example Verilog file are also given,
# the qacc→qma telemetry path is smoked too: compile the example to a
# .qo object, sample it with --telemetry/--stats, and validate the
# emitted JSONL against the qac-telemetry-v1 schema (manifest first,
# required read-record keys, strictly increasing sweep indices).
#
# If the tools directory also contains qmad, the serving path is
# smoked end to end: start the daemon on an ephemeral socket, verify
# that a `qma client` query prints exactly what `qma run` prints
# locally, and check that SIGTERM drains it to a clean exit.  A trap
# guarantees the daemon dies even when a check fails.
#
# Wired into ctest under the label "bench-smoke" so perf-harness rot
# is caught by the regular test run, not discovered the next time
# someone benchmarks.
#
# Usage: bench_smoke.sh <bench-binary-dir> [<tools-dir> <example.v>]

set -u

if [ $# -lt 1 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <bench-binary-dir> [<tools-dir> <example.v>]" >&2
    exit 2
fi
bench_dir=$(cd "$1" && pwd)
tools_dir=""
example_v=""
if [ $# -ge 3 ]; then
    tools_dir=$(cd "$2" && pwd)
    example_v="$3"
fi
script_dir=$(cd "$(dirname "$0")" && pwd)

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch" || exit 2

found=0
failed=0
for bench in "$bench_dir"/bench_*; do
    [ -x "$bench" ] || continue
    found=$((found + 1))
    name=$(basename "$bench")
    start=$(date +%s%N)
    # --benchmark_filter matches nothing: the google-benchmark cases
    # are the timing half, and timing is not what a smoke pass checks.
    if ! QAC_BENCH_SMOKE=1 "$bench" --benchmark_filter='NONE' \
            >"$name.out" 2>"$name.err"; then
        echo "FAIL $name: exited nonzero; output:" >&2
        cat "$name.out" "$name.err" >&2
        failed=1
        continue
    fi
    ds=$(( ($(date +%s%N) - start) / 100000000 ))
    json="BENCH_${name#bench_}.json"
    if [ ! -f "$json" ]; then
        echo "FAIL $name: did not write $json" >&2
        failed=1
        continue
    fi
    if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
            "$json"; then
        echo "FAIL $name: $json does not parse" >&2
        failed=1
        continue
    fi
    echo "ok   $name ($json, $((ds / 10)).$((ds % 10)) s)"
done

if [ "$found" -eq 0 ]; then
    echo "FAIL: no bench_* binaries in $bench_dir" >&2
    exit 1
fi

# ------------------------------------- packed engine-ladder smoke
# QAC_NO_AVX2=1 must drop every vector sweep engine and QAC_NO_AVX512=1
# the top rung (DESIGN.md §13): rerun the kernel bench each way and
# check it both survives and actually reports the engine one rung down
# — a fallback that silently keeps the vector path would make the env
# knob a no-op.  The AVX2 rerun only runs where the default run
# reported avx512, so an AVX-512 host exercises all three engines.
engine_rerun() { # <env var> <engine it must report>
    out="engine_$2.out"
    if ! env QAC_BENCH_SMOKE=1 "$1=1" "$bench_dir/bench_ising_kernel" \
            --benchmark_filter='NONE' >"$out" 2>&1; then
        echo "FAIL bench_ising_kernel: $1=1 rerun exited nonzero;" \
             "output:" >&2
        cat "$out" >&2
        failed=1
    elif ! grep -q "$2 engine" "$out"; then
        echo "FAIL bench_ising_kernel: $1=1 rerun did not report the" \
             "$2 packed-sweep engine" >&2
        grep 'engine' "$out" >&2
        failed=1
    else
        echo "ok   bench_ising_kernel ($1=1 $2 fallback)"
    fi
}
if [ -x "$bench_dir/bench_ising_kernel" ]; then
    engine_rerun QAC_NO_AVX2 scalar
    if grep -q 'avx512 engine' bench_ising_kernel.out; then
        engine_rerun QAC_NO_AVX512 avx2
    fi
fi

# ------------------------------------------------ EXPERIMENTS.md
doc=$(cd "$script_dir/.." && pwd)/EXPERIMENTS.md
if python3 "$script_dir/experiments.py" . "$doc" >/dev/null; then
    echo "ok   EXPERIMENTS.md (every bench block matches)"
else
    echo "FAIL EXPERIMENTS.md: stale bench blocks (diff above); re-render" \
         "with scripts/experiments.py" >&2
    failed=1
fi

# ------------------------------------------------ telemetry smoke
if [ -n "$tools_dir" ]; then
    if [ ! -x "$tools_dir/qacc" ] || [ ! -x "$tools_dir/qma" ]; then
        echo "FAIL telemetry: no qacc/qma in $tools_dir" >&2
        exit 1
    fi
    if ! "$tools_dir/qacc" "$example_v" --target chimera \
            --chimera-size 8 --no-cache -q -o smoke.qo \
            >telemetry.out 2>&1; then
        echo "FAIL telemetry: qacc could not compile $example_v" >&2
        cat telemetry.out >&2
        exit 1
    fi
    if ! "$tools_dir/qma" run smoke.qo --physical --solver chainflip \
            --reads 8 --sweeps 32 --seed 3 --telemetry=smoke.jsonl \
            --telemetry-stride 4 --stats=smoke_stats.json -q \
            >>telemetry.out 2>&1; then
        echo "FAIL telemetry: qma run exited nonzero" >&2
        cat telemetry.out >&2
        exit 1
    fi
    if python3 - smoke.jsonl smoke_stats.json <<'EOF'
import json, sys

jsonl, stats = sys.argv[1], sys.argv[2]
records = []
with open(jsonl) as f:
    for i, line in enumerate(f):
        try:
            records.append(json.loads(line))
        except ValueError as e:
            sys.exit("line %d does not parse: %s" % (i + 1, e))
if not records:
    sys.exit("telemetry JSONL is empty")

head = records[0]
if head.get("schema") != "qac-telemetry-v1":
    sys.exit("first record schema is %r" % head.get("schema"))
if head.get("kind") != "manifest":
    sys.exit("first record kind is %r, want manifest" %
             head.get("kind"))
if head.get("thread_invariant") is not True:
    sys.exit("manifest record must declare thread_invariant")

reads = [r for r in records if r.get("kind") == "read"]
if not reads:
    sys.exit("no read records")
for r in reads:
    for key in ("solver", "run", "read", "sweeps", "points",
                "final_energy"):
        if key not in r:
            sys.exit("read record missing %r: %s" % (key, r))
    sweeps = [p["sweep"] for p in r["points"]]
    if sweeps != sorted(set(sweeps)):
        sys.exit("non-monotone sweep indices in read %s/%s" %
                 (r["run"], r["read"]))
kinds = {r.get("kind") for r in records}
for want in ("chains", "analysis"):
    if want not in kinds:
        sys.exit("no %s record in telemetry JSONL" % want)

report = json.load(open(stats))
if "manifest" not in report:
    sys.exit("stats JSON has no manifest block")
print("ok   telemetry (%d records, kinds: %s)" %
      (len(records), ", ".join(sorted(kinds))))
EOF
    then
        :
    else
        echo "FAIL telemetry: JSONL schema validation failed" >&2
        failed=1
    fi
fi

# ------------------------------------------------ qmad serving smoke
if [ -n "$tools_dir" ] && [ -x "$tools_dir/qmad" ]; then
    sock="$scratch/qmad.sock"
    runflags="--solver exact --reads 32 --seed 7"

    "$tools_dir/qmad" --socket "$sock" smoke.qo >qmad.out 2>&1 &
    qmad_pid=$!
    # The scratch trap already removes files; this one makes sure the
    # daemon itself never outlives the smoke, pass or fail.
    trap 'kill "$qmad_pid" 2>/dev/null; wait "$qmad_pid" 2>/dev/null; rm -rf "$scratch"' EXIT

    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do
        sleep 0.05
        i=$((i + 1))
    done
    if [ ! -S "$sock" ]; then
        echo "FAIL qmad: daemon never bound $sock" >&2
        cat qmad.out >&2
        exit 1
    fi

    # shellcheck disable=SC2086  # runflags is a word list
    "$tools_dir/qma" run smoke.qo $runflags >local.out 2>&1
    # shellcheck disable=SC2086
    if ! "$tools_dir/qma" client "$sock" smoke.qo $runflags \
            >remote.out 2>&1; then
        echo "FAIL qmad: qma client exited nonzero" >&2
        cat remote.out >&2
        failed=1
    elif ! diff -u local.out remote.out >qmad.diff 2>&1; then
        echo "FAIL qmad: client report differs from local run" >&2
        cat qmad.diff >&2
        failed=1
    else
        echo "ok   qmad (client report byte-identical to qma run)"
    fi

    kill -TERM "$qmad_pid"
    if wait "$qmad_pid"; then
        echo "ok   qmad (SIGTERM drained, exit 0)"
    else
        echo "FAIL qmad: nonzero exit after SIGTERM" >&2
        cat qmad.out >&2
        failed=1
    fi
    trap 'rm -rf "$scratch"' EXIT
fi

exit "$failed"
