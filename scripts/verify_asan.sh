#!/bin/sh
# AddressSanitizer verify configuration: proves the global stats
# registry (and the tools driving it) leak- and race-clean.  Builds the
# stats/CLI test targets with -DQAC_SANITIZE=address and runs the
# stats-labelled tests plus the CLI smoke suite under ASan.  The
# packed-labelled suite rides along: the multi-spin kernel's delta
# planes and masked vector stores (DESIGN.md §13) are exactly the kind
# of indexed hot-loop code ASan pays for.  So does the sat-labelled
# suite: the DIMACS parser and clause-gadget lowering are classic
# indexed-buffer parsing code, and the sim-labelled suite: the event
# simulator's fanout/pending index arrays and the VCD writer are more
# of the same (DESIGN.md §15).  The edif-labelled suites cover the
# s-expression reader and the streaming EDIF writer: string-buffer
# code fed hostile input (EDIF stored in a .qo is parsed on load).  The
# embed-labelled suite covers the embedder's bounded shortest-path
# searches: flat dist/pred rows, CSR adjacency, per-usage label FIFOs
# kept across a limit raise, and the root scan's open-candidate list
# (DESIGN.md §3).  The kernel-labelled suite covers the CSR kernel and
# SA's read goldens, which run both the per-read and the packed path.
# The artifact-labelled suite feeds the .qo and cache-entry decoders
# truncated, corrupt and oversized input (a hardware graph's node count
# is capped before it is allocated, and its edge list must be sorted,
# duplicate-free and of Chimera degree); the chimera-labelled suite
# covers the hardware graph and the Chimera builder.  The
# service-labelled suite covers the QSVC frame and request decoders
# (the request's reserved telemetry fields are read and skipped) and
# the loopback server/client round trip.  The qmasm-labelled suite
# covers the assembler's lowering walk, which keeps pointers to its
# interned symbol keys and reuses one instance-prefix buffer.
set -eu

cd "$(dirname "$0")/.."
BUILD=build-asan

cmake -B "$BUILD" -S . -DQAC_SANITIZE=address >/dev/null
cmake --build "$BUILD" -j4 --target stats_test cli_test packed_test \
    kernel_test dimacs_test sim_test edif_test sexpr_test embed_test \
    artifact_test chimera_test service_test qmasm_test qacc qma qsat
cd "$BUILD"
ctest -L 'stats|packed|kernel|sat|sim|edif|embed|artifact|chimera|service|qmasm' \
    --output-on-failure
ctest -R cli_test --output-on-failure
echo "asan verify ok"
