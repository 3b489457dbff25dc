/**
 * @file
 * Reproduces Section 6.1 (static properties of the map-coloring
 * compile):
 *
 *   paper: 6 lines Verilog -> 123 lines EDIF -> 736 lines QMASM
 *          (excl. 232-line stdcell); 74 logical variables;
 *          369 +/- 26 physical qubits over 25 randomized embeddings;
 *          312 -> 963 +/- 53 terms;
 *          hand-coded unary encoding: 28 logical vars, 88 qubits.
 *
 * This harness prints the same rows for QAC, including the hand-coded
 * unary-encoding baseline (Dahl / Lucas / Rieffel et al.) and the
 * roof-duality elision ablation.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/embed/minorminer.h"
#include "qac/embed/roof_duality.h"
#include "qac/ising/qubo.h"

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

/** Region adjacency of Figure 5 (Tasmania excluded). */
const std::pair<int, int> kAdjacency[] = {
    {4, 5}, {4, 2}, {5, 2}, {5, 3}, {2, 3},
    {2, 0}, {2, 6}, {3, 0}, {0, 6}, {0, 1},
}; // indices: NSW=0, QLD=3, SA=2, VIC=6, WA=4, NT=5, ACT=1

/**
 * The hand-coded unary (one-hot) encoding the paper compares against:
 * one binary variable per region-color pair, penalty A for not picking
 * exactly one color, penalty B per same-colored adjacent pair.
 */
ising::IsingModel
handCodedUnary()
{
    const int regions = 7, colors = 4;
    ising::QuboModel q(regions * colors);
    auto var = [&](int r, int c) {
        return static_cast<uint32_t>(r * colors + c);
    };
    const double A = 2.0, B = 1.0;
    for (int r = 0; r < regions; ++r) {
        // A * (sum_c x - 1)^2 = A * (sum x + 2 sum_{c<c'} x x' - ...)
        for (int c = 0; c < colors; ++c)
            q.addLinear(var(r, c), -A);
        for (int c = 0; c < colors; ++c)
            for (int c2 = c + 1; c2 < colors; ++c2)
                q.addQuadratic(var(r, c), var(r, c2), 2.0 * A);
        q.addOffset(A);
    }
    for (const auto &[r, s] : kAdjacency)
        for (int c = 0; c < colors; ++c)
            q.addQuadratic(var(r, c), var(s, c), B);
    return q.toIsing();
}

void
printStaticProperties()
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    auto r = core::compile(kAustralia, opts);

    std::printf("--- Section 6.1: static properties of Listing 7 ---\n");
    std::printf("%-28s %10s %10s\n", "metric", "QAC", "paper");
    std::printf("%-28s %10zu %10s\n", "Verilog lines",
                r.stats.source_lines, "6");
    std::printf("%-28s %10zu %10s\n", "EDIF lines", r.stats.edif_lines,
                "123");
    std::printf("%-28s %10zu %10s\n", "QMASM lines (main)",
                r.stats.qmasm_lines, "736");
    std::printf("%-28s %10zu %10s\n", "stdcell library lines",
                r.stats.stdcell_lines, "232");
    std::printf("%-28s %10zu %10s\n", "logical variables",
                r.stats.logical_vars, "74");
    std::printf("%-28s %10zu %10s\n", "logical terms",
                r.stats.logical_terms, "312");

    // 25 randomized embeddings (the paper: "369 +/- 26").
    auto hw = chimera::chimeraGraph(16);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : r.assembled.model.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    const int trials = 25;
    double sum_q = 0, sum_q2 = 0, sum_t = 0, sum_t2 = 0;
    int ok = 0;
    for (int trial = 0; trial < trials; ++trial) {
        embed::EmbedParams p;
        p.seed = 1000 + trial;
        auto emb = embed::findEmbedding(
            edges, r.assembled.model.numVars(), hw, p);
        if (!emb)
            continue;
        auto em = embed::embedModel(r.assembled.model, *emb, hw);
        double q = static_cast<double>(em.numPhysicalQubits());
        double t = static_cast<double>(em.physical.numTerms());
        sum_q += q;
        sum_q2 += q * q;
        sum_t += t;
        sum_t2 += t * t;
        ++ok;
    }
    double mean_q = sum_q / ok;
    double sd_q = std::sqrt(sum_q2 / ok - mean_q * mean_q);
    double mean_t = sum_t / ok;
    double sd_t = std::sqrt(sum_t2 / ok - mean_t * mean_t);
    std::printf("%-28s %6.0f+/-%-3.0f %10s  (%d/%d embeddings)\n",
                "physical qubits", mean_q, sd_q, "369+/-26", ok,
                trials);
    std::printf("%-28s %6.0f+/-%-3.0f %10s\n", "physical terms",
                mean_t, sd_t, "963+/-53");

    // Hand-coded unary-encoding baseline.
    ising::IsingModel hand = handCodedUnary();
    std::vector<std::pair<uint32_t, uint32_t>> hedges;
    for (const auto &t : hand.quadraticTerms())
        hedges.emplace_back(t.i, t.j);
    embed::EmbedParams hp;
    hp.seed = 7;
    auto hemb = embed::findEmbedding(hedges, hand.numVars(), hw, hp);
    std::printf("\nhand-coded unary encoding (Dahl/Lucas):\n");
    std::printf("%-28s %10zu %10s\n", "logical variables",
                hand.numVars(), "28");
    if (hemb) {
        auto hem = embed::embedModel(hand, *hemb, hw);
        std::printf("%-28s %10zu %10s\n", "physical qubits",
                    hem.numPhysicalQubits(), "88");
        std::printf("Verilog-vs-hand-coded blowup: %.1fx logical, "
                    "%.1fx physical (paper: 2.6x, 4x)\n",
                    static_cast<double>(r.stats.logical_vars) /
                        hand.numVars(),
                    mean_q / hem.numPhysicalQubits());
    }

    // Roof-duality elision ablation (Section 4.4).
    core::Executable prog(std::move(r));
    prog.pinDirective("valid := true");
    core::Executable::RunOptions ro;
    ro.common.num_reads = 1;
    ro.sweeps = 1;
    ro.reduce = true;
    auto rr = prog.run(ro);
    std::printf("\nroof-duality elision with valid := true pinned: "
                "%zu of %zu variables fixed a priori\n\n",
                rr.vars_fixed, rr.vars_fixed + rr.vars_sampled);
}

void
BM_CompileAustralia(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(kAustralia, opts));
}
BENCHMARK(BM_CompileAustralia)->Unit(benchmark::kMillisecond);

void
BM_EmbedAustralia(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    auto r = core::compile(kAustralia, opts);
    auto hw = chimera::chimeraGraph(16);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : r.assembled.model.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    uint64_t seed = 1;
    for (auto _ : state) {
        embed::EmbedParams p;
        p.seed = seed++;
        benchmark::DoNotOptimize(embed::findEmbedding(
            edges, r.assembled.model.numVars(), hw, p));
    }
}
BENCHMARK(BM_EmbedAustralia)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("static_properties");
    printStaticProperties();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
