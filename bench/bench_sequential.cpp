/**
 * @file
 * Reproduces the Section 4.3.3 claim for Listing 3: statically
 * unrolling sequential code "exacts a heavy toll in qubit count".
 * Sweeps the unroll depth of the 6-bit counter and reports gate,
 * variable, and (for small depths) physical-qubit counts.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/util/logging.h"

#include "bench_stats.h"

namespace {

using namespace qac;

const char *kCount = R"(
module count (clk, inc, reset, out);
  input clk, inc, reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset) var <= 0;
    else if (inc) var <= var + 1;
  assign out = var;
endmodule
)";

void
printQubitToll()
{
    std::printf("--- Listing 3 unrolled: the qubit toll of "
                "time-to-space trading ---\n");
    std::printf("%6s %8s %10s %10s %16s\n", "steps", "gates",
                "log vars", "log terms", "C16 phys qubits");
    for (size_t steps : {1, 2, 3, 4, 6, 8}) {
        core::CompileOptions opts;
        opts.verilogOpts().top = "count";
        opts.verilogOpts().unroll_steps = steps;
        // Deeper unrolls are past what the embedder places on C16.
        bool embed = steps <= 2;
        if (embed)
            opts.target = core::Target::Chimera;
        auto r = core::compile(kCount, opts);
        if (embed)
            std::printf("%6zu %8zu %10zu %10zu %16zu\n", steps,
                        r.stats.gates, r.stats.logical_vars,
                        r.stats.logical_terms,
                        r.stats.physical_qubits);
        else
            std::printf("%6zu %8zu %10zu %10zu %16s\n", steps,
                        r.stats.gates, r.stats.logical_vars,
                        r.stats.logical_terms, "(skipped)");
    }
    std::printf("(the paper: \"stateful programs of even modest size "
                "[are] impractical for\n current, qubit-limited "
                "quantum annealers\" — 2048 qubits on a D-Wave "
                "2000Q)\n\n");
}

void
BM_UnrollAndCompile(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "count";
    opts.verilogOpts().unroll_steps = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(kCount, opts));
    state.SetLabel(qac::format("steps=%lld",
                          static_cast<long long>(state.range(0))));
}
BENCHMARK(BM_UnrollAndCompile)->Arg(1)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("sequential");
    printQubitToll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
