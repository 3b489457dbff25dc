/**
 * @file
 * Reproduces the Section 5 NP-solving examples as measurements:
 * circuit satisfiability (5.2) and integer factoring (5.3) run
 * backward, reporting valid-solution fractions and time-to-solution
 * for both annealers (SA and path-integral SQA).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/core/program.h"

#include "bench_stats.h"

namespace {

using namespace qac;

const char *kCircsat = R"(
module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule
)";

const char *kMult = R"(
module mult (A, B, C);
  input [3:0] A;
  input [3:0] B;
  output [7:0] C;
  assign C = A * B;
endmodule
)";

core::Executable
makeCircsat()
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "circsat";
    core::Executable prog(core::compile(kCircsat, opts));
    prog.pinDirective("y := true");
    return prog;
}

core::Executable
makeFactor()
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "mult";
    core::Executable prog(core::compile(kMult, opts));
    prog.pinDirective("C[7:0] := 10001111"); // 143
    return prog;
}

void
printValidFractionSweep()
{
    std::printf("--- Section 5.2/5.3 backward runs: valid-solution "
                "fraction vs anneal length ---\n");
    std::printf("%-10s %-6s %8s %12s %12s\n", "problem", "solver",
                "sweeps", "valid frac", "found 11x13");
    auto circsat = makeCircsat();
    auto factor = makeFactor();
    for (uint32_t sweeps : {64u, 256u, 1024u}) {
        for (const char *solver : {"sa", "sqa"}) {
            const char *sname =
                std::string(solver) == "sa" ? "SA" : "SQA";
            core::Executable::RunOptions ro;
            ro.solver = solver;
            ro.common.num_reads = 200;
            ro.sweeps = sweeps;
            ro.common.seed = 11;
            auto rc = circsat.run(ro);
            std::printf("%-10s %-6s %8u %12.3f %12s\n", "circsat",
                        sname, sweeps, rc.validFraction(), "-");
            auto rf = factor.run(ro);
            bool found = false;
            for (auto *cand : rf.validCandidates()) {
                uint64_t a = factor.portValue(*cand, "A");
                if (a == 11 || a == 13)
                    found = true;
            }
            std::printf("%-10s %-6s %8u %12.3f %12s\n", "factor143",
                        sname, sweeps, rf.validFraction(),
                        found ? "yes" : "no");
        }
    }
    std::printf("(shape: valid fraction grows with anneal length; "
                "factoring is the harder landscape)\n\n");
}

void
BM_CircsatBackward(benchmark::State &state)
{
    auto prog = makeCircsat();
    core::Executable::RunOptions ro;
    ro.common.num_reads = 50;
    ro.sweeps = static_cast<uint32_t>(state.range(0));
    uint64_t valid = 0, total = 0;
    for (auto _ : state) {
        ro.common.seed += 1;
        auto rr = prog.run(ro);
        for (auto *c : rr.validCandidates())
            valid += c->occurrences;
        total += rr.total_reads;
    }
    state.counters["valid_frac"] =
        total ? static_cast<double>(valid) / total : 0;
}
BENCHMARK(BM_CircsatBackward)->Arg(128)->Arg(512)->Unit(
    benchmark::kMillisecond);

void
BM_Factor143Backward(benchmark::State &state)
{
    auto prog = makeFactor();
    core::Executable::RunOptions ro;
    ro.common.num_reads = 50;
    ro.sweeps = static_cast<uint32_t>(state.range(0));
    uint64_t valid = 0, total = 0;
    for (auto _ : state) {
        ro.common.seed += 1;
        auto rr = prog.run(ro);
        for (auto *c : rr.validCandidates())
            valid += c->occurrences;
        total += rr.total_reads;
    }
    state.counters["valid_frac"] =
        total ? static_cast<double>(valid) / total : 0;
}
BENCHMARK(BM_Factor143Backward)->Arg(512)->Arg(2048)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("npsolve");
    printValidFractionSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
