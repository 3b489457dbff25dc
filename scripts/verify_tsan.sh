#!/bin/sh
# ThreadSanitizer verify configuration: proves the exec scheduler and
# every parallelized sampler race-clean.  Builds the parallel/anneal
# test targets with -DQAC_SANITIZE=thread and runs the parallel- and
# anneal-labelled suites under TSan, plus the packed suite — packed
# passes are scheduled across threads like scalar reads, so the lane
# state must stay thread-confined.  The sim suite rides along for the
# differential oracle: diffCheck drives the exact solver's sharded
# enumeration, so its result merging runs under TSan too.  The
# artifact suite stores one cache entry from eight threads at once, so
# the cache's per-directory size ledger and its mutex run under TSan.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-tsan

cmake -B "$BUILD" -S . -DQAC_SANITIZE=thread >/dev/null
cmake --build "$BUILD" -j4 --target parallel_test anneal_test \
    packed_test dimacs_test sim_test artifact_test
cd "$BUILD"
ctest -L 'parallel|anneal|packed|sat|sim|artifact' --output-on-failure
echo "tsan verify ok"
