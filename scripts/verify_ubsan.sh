#!/bin/sh
# UndefinedBehaviorSanitizer verify configuration: proves the parsers,
# the embedder and the packed SA kernel free of signed overflow, bad
# shifts, out-of-range conversions and misaligned access.  Builds the
# edif-, embed-, artifact-, service-, packed-, kernel- and
# chimera-labelled test
# targets with
# -DQAC_SANITIZE=undefined and runs them with every UBSan report
# fatal.  The edif suites cover the s-expression reader and the
# streaming EDIF writer; the embed suite covers the embedder's bounded
# shortest-path searches (CSR adjacency, per-usage label FIFOs,
# doubles pushed to infinity by overuse_base; DESIGN.md §3); the
# artifact suite covers the .qo and cache-entry decoders fed
# truncated and corrupt bytes; the service suite covers the QSVC wire
# codec: frame and request round trips, and corrupt and truncated
# frames.  The packed suite covers the multi-spin sweep engines, dense
# with shifts, ctz and lane masks (DESIGN.md §13); the kernel suite
# covers the CSR kernel and SA's read goldens on both sides of the
# packed-path cut.  The chimera suite covers the Chimera builder's
# coordinate arithmetic.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-ubsan

cmake -B "$BUILD" -S . -DQAC_SANITIZE=undefined >/dev/null
cmake --build "$BUILD" -j4 --target edif_test sexpr_test embed_test \
    artifact_test service_test packed_test kernel_test chimera_test
cd "$BUILD"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest -L 'edif|embed|artifact|service|packed|kernel|chimera' \
    --output-on-failure
echo "ubsan verify ok"
