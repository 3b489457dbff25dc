/**
 * @file
 * The qbsolv path (paper §4.3 / Appendix A): problems too large for
 * the hardware are split into subproblems that fit.  Compares direct
 * SA against qbsolv-style decomposition (exact subsolves) on random
 * Ising instances, and demonstrates dispatching subproblems through
 * the minor-embedded "hardware" path.
 *
 * All samplers are built through anneal::makeSampler; the hardware
 * dispatcher shows the registerSampler extension point.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "qac/anneal/exact.h"
#include "qac/anneal/qbsolv.h"
#include "qac/anneal/sampler.h"
#include "qac/chimera/chimera.h"
#include "qac/embed/embed_model.h"
#include "qac/embed/minorminer.h"
#include "qac/util/rng.h"

#include "bench_stats.h"

namespace {

using namespace qac;

ising::IsingModel
randomSparseModel(Rng &rng, size_t n, size_t degree = 4)
{
    ising::IsingModel m(n);
    for (uint32_t i = 0; i < n; ++i)
        m.addLinear(i, rng.uniform() * 2 - 1);
    for (uint32_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < degree / 2; ++k) {
            uint32_t j = static_cast<uint32_t>(rng.below(n));
            if (i != j)
                m.addQuadratic(i, j, rng.uniform() * 2 - 1);
        }
    }
    return m;
}

void
printDecompositionQuality()
{
    std::printf("--- qbsolv decomposition vs direct SA "
                "(random sparse Ising) ---\n");
    std::printf("%6s %14s %14s %14s\n", "vars", "SA best",
                "qbsolv best", "winner");
    Rng rng(31);
    for (size_t n : {40, 80, 160, 320}) {
        ising::IsingModel m = randomSparseModel(rng, n);
        anneal::SamplerOpts so;
        so.common.num_reads = 20;
        so.common.seed = 3;
        so.sweeps = 512;
        so.greedy_polish = true;
        double sa =
            anneal::makeSampler("sa", so)->sample(m).best().energy;
        anneal::SamplerOpts qo;
        qo.common.seed = 3;
        qo.extra["qbsolv.subproblem_size"] = 24;
        qo.extra["qbsolv.outer_iterations"] =
            static_cast<double>(8 * n / 24 + 16);
        qo.extra["qbsolv.restarts"] = 4;
        double qb =
            anneal::makeSampler("qbsolv", qo)->sample(m).best().energy;
        std::printf("%6zu %14.3f %14.3f %14s\n", n, sa, qb,
                    qb < sa - 1e-9 ? "qbsolv"
                                   : (sa < qb - 1e-9 ? "SA" : "tie"));
    }
    std::printf("(full-view SA retains an edge at these sizes; the "
                "decomposer's value is\n solving problems that exceed "
                "the device, demonstrated below)\n\n");
}

void
printHardwareDispatch()
{
    std::printf("--- qbsolv dispatching subproblems to embedded "
                "'hardware' ---\n");
    Rng rng(32);
    ising::IsingModel m = randomSparseModel(rng, 60);
    auto hw = chimera::chimeraGraph(4); // a small C4 'device'

    // Restarts run concurrently, so the dispatch counter is atomic.
    std::atomic<size_t> dispatched{0};

    // registerSampler is the factory's extension point: a "qbsolv-hw"
    // variant whose sub-solver embeds each subproblem on the C4 device
    // and chain-flip anneals it, exactly qbsolv's D-Wave dispatch.
    anneal::registerSampler(
        "qbsolv-hw",
        [&hw, &dispatched](const anneal::SamplerOpts &o)
            -> std::unique_ptr<anneal::Sampler> {
            anneal::QbsolvSolver::Params qp;
            static_cast<anneal::CommonParams &>(qp) = o.common;
            qp.subproblem_size = 12;
            qp.outer_iterations = 8;
            qp.restarts = 2;
            auto solver = std::make_unique<anneal::QbsolvSolver>(qp);
            solver->setSubSolver([&](const ising::IsingModel &sub) {
                ++dispatched;
                std::vector<std::pair<uint32_t, uint32_t>> edges;
                for (const auto &t : sub.quadraticTerms())
                    edges.emplace_back(t.i, t.j);
                embed::EmbedParams ep;
                ep.tries = 4;
                auto emb =
                    embed::findEmbedding(edges, sub.numVars(), hw, ep);
                if (!emb) // fallback: exact
                    return anneal::ExactSolver().solve(sub)
                        .ground_states.front();
                auto em = embed::embedModel(sub, *emb, hw);
                anneal::SamplerOpts co;
                co.common.num_reads = 10;
                co.sweeps = 128;
                co.chains = em.dense_chains;
                auto set = anneal::makeSampler("chainflip", co)
                               ->sample(em.physical);
                return em.unembed(set.best().spins);
            });
            return solver;
        });

    auto set =
        anneal::makeSampler("qbsolv-hw", {})->sample(m);
    std::printf("60-variable problem solved through a C4 device: "
                "best E = %.3f over %zu hardware dispatches\n\n",
                set.best().energy, dispatched.load());
}

void
BM_QbsolvRandom(benchmark::State &state)
{
    Rng rng(33);
    ising::IsingModel m =
        randomSparseModel(rng, static_cast<size_t>(state.range(0)));
    anneal::SamplerOpts qo;
    qo.extra["qbsolv.subproblem_size"] = 20;
    qo.extra["qbsolv.outer_iterations"] = 16;
    qo.extra["qbsolv.restarts"] = 2;
    for (auto _ : state) {
        qo.common.seed += 1;
        benchmark::DoNotOptimize(
            anneal::makeSampler("qbsolv", qo)->sample(m));
    }
}
BENCHMARK(BM_QbsolvRandom)->Arg(80)->Arg(160)->Unit(
    benchmark::kMillisecond);

void
BM_SaRandom(benchmark::State &state)
{
    Rng rng(33);
    ising::IsingModel m =
        randomSparseModel(rng, static_cast<size_t>(state.range(0)));
    anneal::SamplerOpts so;
    so.common.num_reads = 20;
    so.sweeps = 512;
    so.greedy_polish = true;
    for (auto _ : state) {
        so.common.seed += 1;
        benchmark::DoNotOptimize(
            anneal::makeSampler("sa", so)->sample(m));
    }
}
BENCHMARK(BM_SaRandom)->Arg(80)->Arg(160)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("qbsolv");
    printDecompositionQuality();
    printHardwareDispatch();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
