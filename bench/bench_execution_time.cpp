/**
 * @file
 * Reproduces Section 6.2 (execution time): microseconds per returned
 * solution for the annealer vs the classical constraint solver on the
 * Listing 7 / Listing 8 map-coloring problem.
 *
 *   paper: D-Wave 2000Q 734 us/solution (1M anneals of 20 us, incl.
 *   HTTPS and queuing) vs Chuffed 1798 us/solution.
 *
 * Our substrate is a software annealer, so absolute numbers differ;
 * the paper's point — "the performance of our approach is not
 * necessarily worse than that of a classical solver" — is what the
 * same-order-of-magnitude comparison here tests.  Like the paper's
 * Chuffed run, the CSP baseline returns a guaranteed-correct solution
 * every time while the annealer samples (and some samples are
 * invalid), so us-per-VALID-solution is also reported.
 *
 * Timed rows print under headers ending "(host-dependent)", which
 * scripts/experiments.py leaves out of its EXPERIMENTS.md check.
 * The thread-scaling rows must sample identical candidate sets; the
 * program exits nonzero if one does not.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/csp/csp.h"

#include "bench_stats.h"

namespace {

using namespace qac;

const char *kAustralia = R"(
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD &&
                 SA != QLD && SA != NSW && SA != VIC && QLD != NSW &&
                 NSW != VIC && NSW != ACT;
endmodule
)";

/** Listing 8's model. */
csp::Model
australiaCsp()
{
    csp::Model m;
    uint32_t nsw = m.addVariable("NSW", 1, 4);
    uint32_t qld = m.addVariable("QLD", 1, 4);
    uint32_t sa = m.addVariable("SA", 1, 4);
    uint32_t vic = m.addVariable("VIC", 1, 4);
    uint32_t wa = m.addVariable("WA", 1, 4);
    uint32_t nt = m.addVariable("NT", 1, 4);
    uint32_t act = m.addVariable("ACT", 1, 4);
    m.notEqual(wa, nt);
    m.notEqual(wa, sa);
    m.notEqual(nt, sa);
    m.notEqual(nt, qld);
    m.notEqual(sa, qld);
    m.notEqual(sa, nsw);
    m.notEqual(sa, vic);
    m.notEqual(qld, nsw);
    m.notEqual(nsw, vic);
    m.notEqual(nsw, act);
    return m;
}

void
printExecutionTimeTable()
{
    using clock = std::chrono::steady_clock;

    // Annealer side: compile once, run many anneals, count solutions.
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    core::Executable prog(core::compile(kAustralia, opts));
    prog.pinDirective("valid := true");
    core::Executable::RunOptions ro;
    ro.common.num_reads = 2000;
    ro.sweeps = 256;
    ro.reduce = true;

    auto t0 = clock::now();
    auto rr = prog.run(ro);
    auto t1 = clock::now();
    double total_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    uint64_t valid_reads = 0;
    for (auto *c : rr.validCandidates())
        valid_reads += c->occurrences;
    double us_per_read = total_us / rr.total_reads;
    double us_per_valid =
        valid_reads ? total_us / valid_reads : 0.0;

    // CSP side: Listing 8 solved repeatedly with randomized value
    // orders (the paper re-ran Chuffed 100,000 times; scale down but
    // measure the same per-solution quantity).
    csp::Model model = australiaCsp();
    const int csp_runs = 20000;
    auto t2 = clock::now();
    size_t found = 0;
    for (int k = 0; k < csp_runs; ++k) {
        csp::Solver::Params p;
        p.seed = static_cast<uint64_t>(k + 1);
        csp::Solver solver(p);
        if (solver.solve(model))
            ++found;
    }
    auto t3 = clock::now();
    double csp_us =
        std::chrono::duration<double, std::micro>(t3 - t2).count() /
        found;

    std::printf("--- Section 6.2: map coloring, annealer samples ---\n");
    std::printf("annealer valid fraction: %.2f over %llu reads; "
                "distinct colorings sampled: %zu\n\n",
                rr.validFraction(),
                static_cast<unsigned long long>(rr.total_reads),
                rr.validCandidates().size());

    std::printf("--- Section 6.2: execution time, map coloring "
                "(host-dependent) ---\n");
    std::printf("%-34s %12s %14s\n", "solver", "us/solution",
                "paper");
    std::printf("%-34s %12.1f %14s\n",
                "QAC annealer (per anneal read)", us_per_read, "734");
    std::printf("%-34s %12.1f %14s\n",
                "QAC annealer (per valid read)", us_per_valid, "-");
    std::printf("%-34s %12.1f %14s\n", "CSP baseline (Listing 8)",
                csp_us, "1798");
    std::printf("(paper's caveat holds here too: the CSP result is "
                "always correct and identical,\n the annealer samples "
                "the solution space stochastically)\n\n");
}

/** Prints the table; false if some thread count sampled differently. */
bool
printThreadScalingTable()
{
    using clock = std::chrono::steady_clock;
    std::printf("--- thread scaling: same seeds, same answers "
                "(host-dependent) ---\n");
    std::printf("(results are bitwise-deterministic: every row below "
                "must sample identical\n candidate sets; speedup "
                "requires as many hardware cores as workers)\n");
    std::printf("%8s %12s %9s %10s\n", "threads", "wall ms", "speedup",
                "identical");

    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    core::Executable prog(core::compile(kAustralia, opts));
    prog.pinDirective("valid := true");
    core::Executable::RunOptions ro;
    ro.common.num_reads = 2000;
    ro.sweeps = 256;
    ro.common.seed = 7;

    bool all_identical = true;
    double base_ms = 0.0;
    std::vector<core::Executable::Candidate> reference;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        ro.common.threads = threads;
        auto t0 = clock::now();
        auto rr = prog.run(ro);
        auto t1 = clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (threads == 1) {
            base_ms = ms;
            reference = rr.candidates;
        }
        bool identical = rr.candidates.size() == reference.size();
        for (size_t i = 0; identical && i < reference.size(); ++i)
            identical =
                rr.candidates[i].logical_spins ==
                    reference[i].logical_spins &&
                rr.candidates[i].energy == reference[i].energy &&
                rr.candidates[i].occurrences ==
                    reference[i].occurrences;
        all_identical = all_identical && identical;
        std::printf("%8u %12.1f %8.2fx %10s\n", threads, ms,
                    base_ms / ms, identical ? "yes" : "NO");
        stats::gauge("bench.threads." + std::to_string(threads) +
                         ".wall_ms",
                     static_cast<uint64_t>(ms));
    }
    std::printf("\n");
    return all_identical;
}

void
BM_AnnealerPerRead(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    core::Executable prog(core::compile(kAustralia, opts));
    prog.pinDirective("valid := true");
    core::Executable::RunOptions ro;
    ro.common.num_reads = 200;
    ro.sweeps = static_cast<uint32_t>(state.range(0));
    ro.common.threads = static_cast<uint32_t>(state.range(1));
    for (auto _ : state) {
        ro.common.seed += 1;
        auto rr = prog.run(ro);
        benchmark::DoNotOptimize(rr);
    }
    state.SetItemsProcessed(state.iterations() * ro.common.num_reads);
}
BENCHMARK(BM_AnnealerPerRead)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond);

void
BM_CspSolve(benchmark::State &state)
{
    csp::Model model = australiaCsp();
    uint64_t seed = 1;
    for (auto _ : state) {
        csp::Solver::Params p;
        p.seed = seed++;
        csp::Solver solver(p);
        benchmark::DoNotOptimize(solver.solve(model));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CspSolve);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("execution_time");
    printExecutionTimeTable();
    const bool identical = printThreadScalingTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return identical ? 0 : 1;
}
