/**
 * @file
 * Reproduces the Section 4.4 minor-embedding example and quantifies
 * embedding behaviour:
 *
 *  - the K3 triangle -> 4 physical qubits worked example,
 *  - qubit blowup for cliques K2..K12 on a C16 Chimera graph,
 *  - sensitivity to qubit dropout ("there is inevitably some
 *    drop-out"),
 *  - the chain-strength ablation called out in DESIGN.md: valid-
 *    solution fraction of the physical map-coloring run vs the
 *    intra-chain coupling strength.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/util/logging.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/embed/embed_model.h"
#include "qac/embed/minorminer.h"

#include "bench_stats.h"

namespace {

using namespace qac;

std::vector<std::pair<uint32_t, uint32_t>>
cliqueEdges(uint32_t n)
{
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t a = 0; a < n; ++a)
        for (uint32_t b = a + 1; b < n; ++b)
            edges.push_back({a, b});
    return edges;
}

void
printCliqueSweep()
{
    std::printf("--- Section 4.4: minor-embedding qubit blowup "
                "(cliques on C16) ---\n");
    std::printf("%6s %14s %10s\n", "K_n", "phys qubits", "max chain");
    auto hw = chimera::chimeraGraph(16);
    for (uint32_t n : {2, 3, 4, 5, 6, 8, 10, 12}) {
        embed::EmbedParams p;
        p.tries = 6;
        auto emb = embed::findEmbedding(cliqueEdges(n), n, hw, p);
        if (emb)
            std::printf("%6u %14zu %10zu\n", n, emb->totalQubits(),
                        emb->maxChainLength());
        else
            std::printf("%6u %14s %10s\n", n, "FAIL", "-");
    }
    std::printf("(the paper's worked example: the K3 triangle costs 4 "
                "physical qubits)\n\n");
}

void
printDropoutSweep()
{
    std::printf("--- dropout sensitivity (K8 on C16) ---\n");
    std::printf("%10s %12s %14s\n", "dropout", "active", "phys qubits");
    for (double frac : {0.0, 0.02, 0.05, 0.10}) {
        auto hw = chimera::chimeraGraph(16);
        chimera::applyDropout(hw, frac, 5);
        embed::EmbedParams p;
        p.tries = 6;
        auto emb = embed::findEmbedding(cliqueEdges(8), 8, hw, p);
        if (emb)
            std::printf("%9.0f%% %12zu %14zu\n", frac * 100,
                        hw.numActiveNodes(), emb->totalQubits());
        else
            std::printf("%9.0f%% %12zu %14s\n", frac * 100,
                        hw.numActiveNodes(), "FAIL");
    }
    std::printf("\n");
}

const char *kAustralia = R"(
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD &&
                 SA != QLD && SA != NSW && SA != VIC && QLD != NSW &&
                 NSW != VIC && NSW != ACT;
endmodule
)";

void
printChainStrengthAblation()
{
    std::printf("--- ablation: chain strength vs physical-run "
                "quality (map coloring, C16) ---\n");
    core::CompileOptions opts;
    opts.verilogOpts().top = "australia";
    opts.target = core::Target::Chimera;
    auto compiled = core::compile(kAustralia, opts);
    const auto &logical = compiled.assembled.model;
    const auto &emb = *compiled.embedding;
    const auto &hw = *compiled.hardware;

    // Pin valid := true the way the Executable does.
    ising::IsingModel pinned = logical;
    uint32_t valid_var = compiled.assembled.var("valid");
    double mass = std::abs(logical.linear(valid_var));
    for (const auto &[j, w] : logical.adjacency()[valid_var]) {
        (void)j;
        mass += std::abs(w);
    }
    pinned.addLinear(valid_var, -(mass + 1.0));

    std::printf("%14s %12s %14s\n", "chain strength", "valid frac",
                "chain breaks");
    for (double strength : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        embed::EmbedModelOptions mo;
        mo.chain_strength = strength;
        auto em = embed::embedModel(pinned, emb, hw, mo);
        anneal::SamplerOpts so;
        so.common.num_reads = 80;
        so.common.seed = 9;
        so.sweeps = 384;
        so.chains = em.dense_chains;
        auto set = anneal::makeSampler("chainflip", so)
                       ->sample(em.physical);
        uint64_t valid = 0, breaks = 0;
        for (const auto &s : set.samples()) {
            size_t b = 0;
            auto lg = em.unembed(s.spins, &b);
            breaks += b * s.num_occurrences;
            if (compiled.assembled.checkAsserts(lg) &&
                ising::spinToBool(lg[valid_var]))
                valid += s.num_occurrences;
        }
        std::printf("%14.1f %12.3f %14.1f\n", strength,
                    static_cast<double>(valid) / set.totalReads(),
                    static_cast<double>(breaks) / set.totalReads());
    }
    std::printf("(too weak: chains break and no read is valid; the "
                "valid fraction still rises at\n 8.0, the strongest "
                "tried, so this sweep never reaches the too-strong "
                "side)\n\n");
}

void
BM_EmbedClique(benchmark::State &state)
{
    auto hw = chimera::chimeraGraph(16);
    uint32_t n = static_cast<uint32_t>(state.range(0));
    uint64_t seed = 1;
    for (auto _ : state) {
        embed::EmbedParams p;
        p.seed = seed++;
        p.tries = 6;
        benchmark::DoNotOptimize(
            embed::findEmbedding(cliqueEdges(n), n, hw, p));
    }
    state.SetLabel(qac::format("K%u", n));
}
BENCHMARK(BM_EmbedClique)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond)->Iterations(3);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("embedding");
    printCliqueSweep();
    printDropoutSweep();
    printChainStrengthAblation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
