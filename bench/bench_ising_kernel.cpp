/**
 * @file
 * Throughput of SA's 64-lane multi-spin kernel (DESIGN.md §13).
 *
 * The one row compares the scalar per-read SA hot loop against the
 * packed kernel on the same 64 reads of a C16 Chimera model, in
 * aggregate per-replica proposals per second.  Both sides run the
 * identical dynamics (the packed kernel is bitwise-equal to the
 * scalar path by contract), so the speedup gauge is a pure time
 * ratio.  The sweep engine runtime dispatch picked is printed under
 * the table ("scalar engine" when QAC_NO_AVX2=1).
 *
 * BENCH_ising_kernel.json carries the machine-readable form:
 * bench.kernel.packed.{baseline,kernel}_flips_per_sec and
 * .speedup_x100 gauges.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/anneal/simulated.h"
#include "qac/chimera/chimera.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/ising/packed.h"
#include "qac/stats/registry.h"
#include "qac/util/rng.h"

#include "bench_stats.h"

namespace {

using namespace qac;

constexpr uint64_t kSeed = 2019;

/** C_m Chimera hardware graph with random h, J in [-1, 1). */
ising::IsingModel
chimeraModel(uint32_t m)
{
    chimera::HardwareGraph g = chimera::chimeraGraph(m);
    ising::IsingModel model(g.numNodes());
    Rng rng(kSeed);
    for (uint32_t i = 0; i < g.numNodes(); ++i)
        model.addLinear(i, rng.uniform() * 2 - 1);
    for (const auto &[u, v] : g.activeEdges())
        model.addQuadratic(u, v, rng.uniform() * 2 - 1);
    return model;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Run
{
    uint64_t proposals = 0;
    double seconds = 0.0;
    double checksum = 0.0; ///< defeats dead-code elimination
};

std::vector<double>
betaSchedule(double b0, double b1, uint32_t sweeps)
{
    std::vector<double> betas(sweeps);
    double ratio =
        (sweeps > 1) ? std::pow(b1 / b0, 1.0 / (sweeps - 1)) : 1.0;
    double b = b0;
    for (uint32_t s = 0; s < sweeps; ++s) {
        betas[s] = b;
        b *= ratio;
    }
    return betas;
}

// ------------------------------------------------- packed multi-spin

/**
 * Scalar comparator for the "packed" row: the per-read scalar SA hot
 * loop exactly as simulated.cpp runs it (threshold skip + monotone
 * freeze-out), over all @p reads reads in turn.  Proposals count one
 * per variable per executed sweep, so the packed side's aggregate
 * per-replica count is directly comparable.
 */
Run
packedScalar(const ising::CompiledModel &kernel,
             const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    ising::LocalFieldState state(kernel);
    ising::SpinVector spins(n);
    Run r;
    const double t0 = now();
    for (uint32_t read = 0; read < reads; ++read) {
        Rng rng = Rng::streamAt(kSeed, read);
        for (auto &s : spins)
            s = rng.spin();
        state.reset(spins);
        for (double beta : betas) {
            const double thresh = anneal::kMaxExpArg / beta;
            bool drew = false;
            for (uint32_t i = 0; i < n; ++i) {
                const double delta = state.flipDelta(i);
                if (delta >= thresh)
                    continue;
                drew = true;
                if (anneal::metropolisAccept(rng, beta * delta))
                    state.flip(i);
            }
            r.proposals += n;
            if (!drew)
                break; // frozen: the remaining sweeps are no-ops
        }
        r.checksum += kernel.energy(state.spins());
    }
    r.seconds = now() - t0;
    return r;
}

/**
 * The same reads through the 64-lane multi-spin kernel (DESIGN.md
 * §13), using whichever sweep engine runtime dispatch selects.  A
 * pass's proposal count is n per live lane per sweep — the dynamics
 * are bitwise-identical to packedScalar's, so the two sides execute
 * the same aggregate replica-sweeps and the speedup is a pure time
 * ratio.
 */
Run
packedKernel(const ising::CompiledModel &kernel,
             const std::vector<double> &betas, uint32_t reads)
{
    const size_t n = kernel.numVars();
    const anneal::PackedSweepFn sweep = anneal::selectPackedSweep();
    Run r;
    const double t0 = now();
    for (uint32_t base = 0; base < reads;
         base += ising::PackedState::kLanes) {
        const uint32_t nlanes = std::min<uint32_t>(
            ising::PackedState::kLanes, reads - base);
        ising::PackedState state(kernel);
        anneal::LaneRngs rngs;
        ising::SpinVector spins(n);
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng rng = Rng::streamAt(kSeed, base + l);
            for (auto &s : spins)
                s = rng.spin();
            state.resetLane(l, spins);
            rngs.set(l, rng);
        }
        uint64_t live = state.activeMask();
        for (double beta : betas) {
            const double thresh = anneal::kMaxExpArg / beta;
            const uint64_t drew = sweep(state, rngs, beta, thresh);
            r.proposals +=
                uint64_t(__builtin_popcountll(live)) * n;
            live &= drew;
            if (live == 0)
                break;
        }
        for (uint32_t l = 0; l < nlanes; ++l)
            r.checksum += state.laneEnergy(l);
    }
    r.seconds = now() - t0;
    return r;
}

// ------------------------------------------------------------ table

/** Median-by-elapsed-time element of a set of repetitions. */
const Run &
medianRun(std::vector<Run> &runs)
{
    std::sort(runs.begin(), runs.end(),
              [](const Run &a, const Run &b) {
                  return a.seconds < b.seconds;
              });
    return runs[runs.size() / 2];
}

/**
 * Time the scalar/packed pair on one 64-read pass.  The two sides are
 * run back to back, the pair repeated, and each side reports its
 * median repetition: single-shot timings on a busy host can drift by
 * 10-20% between the two measurements, which would show up as a
 * phantom change in the ratio.  Interleaving puts both sides under
 * the same machine state and the median discards steal-time spikes
 * symmetrically.
 */
void
printKernelTable()
{
    const uint32_t m = 16; // C16: the paper's D-Wave 2000Q scale
    ising::IsingModel model = chimeraModel(m);
    const ising::CompiledModel kernel(model);
    std::printf("--- packed SA kernel: proposals/sec, C%u Chimera "
                "(%zu vars, %zu couplers) ---\n",
                m, model.numVars(), kernel.numEdges());
    std::printf("%-10s %14s %14s %9s\n", "sampler", "base Mprop/s",
                "kernel Mprop/s", "speedup");

    // Short schedules under-weight the cold phase, where proposals
    // are cheapest, so the full run sweeps long.
    auto [b0, b1] = anneal::SimulatedAnnealer::defaultBetaRange(kernel);
    const std::vector<double> betas =
        betaSchedule(b0, b1, benchstats::smoke() ? 16 : 256);
    constexpr uint32_t reads = ising::PackedState::kLanes;
    const int reps = benchstats::smoke() ? 1 : 5;
    std::vector<Run> base_runs, kern_runs;
    for (int j = 0; j < reps; ++j) {
        base_runs.push_back(packedScalar(kernel, betas, reads));
        kern_runs.push_back(packedKernel(kernel, betas, reads));
    }
    const Run &base = medianRun(base_runs);
    const Run &kern = medianRun(kern_runs);

    const double base_rate = base.proposals / base.seconds;
    const double kern_rate = kern.proposals / kern.seconds;
    const double speedup = kern_rate / base_rate;
    std::printf("%-10s %14.2f %14.2f %9.2fx\n", "packed",
                base_rate / 1e6, kern_rate / 1e6, speedup);
    std::printf("           (packed row: 64-lane multi-spin vs scalar "
                "per-read SA, %s engine)\n\n",
                anneal::packedSweepEngineName());
    stats::gauge("bench.kernel.packed.baseline_flips_per_sec",
                 static_cast<uint64_t>(base_rate));
    stats::gauge("bench.kernel.packed.kernel_flips_per_sec",
                 static_cast<uint64_t>(kern_rate));
    stats::gauge("bench.kernel.packed.speedup_x100",
                 static_cast<uint64_t>(speedup * 100));
    benchmark::DoNotOptimize(base.checksum);
    benchmark::DoNotOptimize(kern.checksum);
}

} // namespace

int
main()
{
    qac::benchstats::Scope bench_scope("ising_kernel");
    printKernelTable();
    return 0;
}
