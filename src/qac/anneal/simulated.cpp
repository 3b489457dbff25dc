#include "qac/anneal/simulated.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/descent.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/exec/exec.h"
#include "qac/ising/compiled.h"
#include "qac/ising/packed.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"

namespace qac::anneal {

namespace {

/**
 * Read count from which SA runs the packed multi-spin kernel.  The
 * two paths are bitwise-identical, so this is purely a cost choice.
 * Measured on a 4-vCPU AVX-512 Xeon, one thread, random degree-6
 * models: packed costs 1.2-5.8x the scalar loop at 1-7 reads (4.8x at
 * n=90, 128 sweeps, 1 read) and 0.65-0.97x at 8.  The lane-major
 * layout, not the sweep's lane scan, sets the small-read cost.
 */
constexpr uint32_t kPackedMinReads = 8;

/**
 * Multi-spin-coded SA (DESIGN.md §13): reads run 64 to a packed pass,
 * and packed passes — not individual reads — are the work items the
 * thread pool schedules.  Lane l of pass p is read p*64+l and draws
 * from Rng::streamAt(seed, p*64+l) exactly as the scalar path does,
 * so the merged SampleSet and any telemetry are bitwise-identical to
 * the scalar kernel's at every thread count.
 */
SampleSet
samplePackedReads(const SimulatedAnnealer::Params &params,
                  const ising::CompiledModel &kernel,
                  const std::vector<double> &betas, bool monotone,
                  telemetry::RunTrace *trun,
                  std::atomic<uint64_t> &flips)
{
    constexpr uint32_t kLanes = ising::PackedState::kLanes;
    const uint32_t n = static_cast<uint32_t>(kernel.numVars());
    const uint32_t sweeps = static_cast<uint32_t>(betas.size());
    const uint64_t passes = packedPasses(params.num_reads);
    const PackedSweepFn sweep_fn = selectPackedSweep();

    std::vector<SampleSet> parts(passes);
    exec::parallelFor(passes, params.threads, [&](size_t p) {
        const uint32_t base = static_cast<uint32_t>(p) * kLanes;
        const uint32_t nlanes =
            std::min<uint32_t>(kLanes, params.num_reads - base);

        ising::PackedState state(kernel);
        LaneRngs rngs;
        for (uint32_t l = 0; l < nlanes; ++l) {
            Rng rng = Rng::streamAt(params.seed, base + l);
            ising::SpinVector spins(n);
            for (auto &s : spins)
                s = rng.spin();
            state.resetLane(l, spins);
            rngs.set(l, rng);
        }

        telemetry::ReadRecorder *rec[kLanes] = {};
        bool any_rec = false;
        for (uint32_t l = 0; l < nlanes; ++l) {
            rec[l] = trun ? trun->recorder(base + l) : nullptr;
            any_rec |= rec[l] != nullptr;
        }

        // Per-lane freeze-out, mirroring the scalar sweep loop: a
        // live lane that drew nothing in a monotone-schedule sweep is
        // frozen — its deltas all sit at or above a threshold that
        // only shrinks, so it can never draw again and is recorded
        // through its freezing sweep only.
        uint64_t live = state.activeMask();
        uint32_t sweeps_done[kLanes];
        std::fill(sweeps_done, sweeps_done + kLanes, sweeps);
        for (uint32_t s = 0; s < sweeps; ++s) {
            const double beta = betas[s];
            const double thresh = kMaxExpArg / beta;
            const uint64_t drew = sweep_fn(state, rngs, beta, thresh);
            if (any_rec) {
                for (uint64_t m = live; m != 0; m &= m - 1) {
                    const unsigned l = static_cast<unsigned>(
                        __builtin_ctzll(m));
                    if (rec[l] && rec[l]->want(s))
                        rec[l]->record(s, state.laneEnergy(l), beta,
                                       state.flips(l),
                                       uint64_t{s + 1} * n);
                }
            }
            if (monotone) {
                for (uint64_t m = live & ~drew; m != 0; m &= m - 1)
                    sweeps_done[__builtin_ctzll(m)] = s + 1;
                live &= drew;
                if (live == 0)
                    break;
            }
        }

        SampleSet &part = parts[p];
        for (uint32_t l = 0; l < nlanes; ++l) {
            // Hand the lane to a scalar walker for the polish and the
            // final report.  The maintained deltas are adopted, not
            // recomputed, so the descent sees the exact values the
            // scalar path's walker would carry here.
            ising::LocalFieldState walker(kernel);
            walker.adopt(state.laneSpins(l), state.laneDeltas(l),
                         state.flips(l));
            if (params.greedy_polish)
                greedyDescent(walker);
            const double e = kernel.energy(walker.spins());
            stats::record("anneal.sa.energy", e);
            flips.fetch_add(walker.flips(),
                            std::memory_order_relaxed);
            if (rec[l])
                rec[l]->finish(e, sweeps_done[l], walker.flips(),
                               uint64_t{sweeps_done[l]} * n);
            part.add(walker.spins(), e);
        }
    });

    SampleSet out;
    for (auto &part : parts)
        out.merge(std::move(part));
    out.finalize();
    return out;
}

} // namespace

std::pair<double, double>
SimulatedAnnealer::defaultBetaRange(const ising::CompiledModel &kernel)
{
    // Hot end: the largest possible |delta E| flips with probability
    // ~1/2.  Cold end: the smallest nonzero field barely flips.
    double max_local = 0.0;
    double min_scale = std::numeric_limits<double>::infinity();
    const auto &row = kernel.rowOffsets();
    const auto &w = kernel.weights();
    for (uint32_t i = 0; i < kernel.numVars(); ++i) {
        double local = std::abs(kernel.linear(i));
        if (local > 0)
            min_scale = std::min(min_scale, local);
        for (uint32_t k = row[i]; k < row[i + 1]; ++k) {
            local += std::abs(w[k]);
            if (w[k] != 0.0)
                min_scale = std::min(min_scale, std::abs(w[k]));
        }
        max_local = std::max(max_local, local);
    }
    if (max_local <= 0.0)
        return {0.1, 1.0};
    if (!std::isfinite(min_scale))
        min_scale = max_local;
    double beta_hot = std::log(2.0) / (2.0 * max_local);
    double beta_cold = std::log(100.0) / (2.0 * min_scale);
    if (beta_cold <= beta_hot)
        beta_cold = beta_hot * 10.0;
    return {beta_hot, beta_cold};
}

std::pair<double, double>
SimulatedAnnealer::defaultBetaRange(const ising::IsingModel &model)
{
    return defaultBetaRange(ising::CompiledModel(model));
}

SampleSet
SimulatedAnnealer::sample(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();
    SampleSet out;
    if (n == 0) {
        out.finalize();
        return out;
    }

    stats::ScopedTimer timer("anneal.sa.time");
    const uint64_t t0 = stats::Trace::nowNs();

    const ising::CompiledModel kernel(model);

    const auto [b0, b1] = defaultBetaRange(kernel);

    const uint32_t sweeps = std::max<uint32_t>(1, params_.sweeps);
    // Geometric beta schedule.
    std::vector<double> betas(sweeps);
    double ratio = (sweeps > 1)
                       ? std::pow(b1 / b0, 1.0 / (sweeps - 1))
                       : 1.0;
    double b = b0;
    for (uint32_t s = 0; s < sweeps; ++s) {
        betas[s] = b;
        b *= ratio;
    }

    std::atomic<uint64_t> flips{0};
    telemetry::RunTrace *trun =
        telemetry::Collector::global().beginRun("sa",
                                                params_.num_reads);

    if (params_.num_reads >= kPackedMinReads) {
        const bool monotone = ratio >= 1.0;
        out = samplePackedReads(params_, kernel, betas, monotone, trun,
                                flips);
        const uint64_t elapsed = stats::Trace::nowNs() - t0;
        detail::recordSampleStats(
            "sa", out, uint64_t{sweeps} * params_.num_reads, elapsed);
        detail::recordKernelStats(
            "sa", flips.load(std::memory_order_relaxed), elapsed);
        detail::recordPackedStats(ising::PackedState::kLanes,
                                  packedPasses(params_.num_reads));
        return out;
    }

    out = detail::sampleReads(
        params_.num_reads, params_.threads,
        [&](uint32_t read, SampleSet &part) {
            Rng rng = Rng::streamAt(params_.seed, read);
            ising::SpinVector spins(n);
            for (auto &s : spins)
                s = rng.spin();
            ising::LocalFieldState state(kernel);
            state.reset(spins);
            // Null while telemetry is disabled: the per-sweep hook
            // below degrades to one pointer test per sweep.
            telemetry::ReadRecorder *rec =
                trun ? trun->recorder(read) : nullptr;

            // With a monotone (heating) schedule, a sweep that draws
            // nothing proves the state frozen: every variable sat at
            // delta >= thresh, no flip was possible, and every
            // remaining sweep would make the same rejections while
            // consuming no randomness — skipping them is bitwise
            // identical.
            const bool monotone = ratio >= 1.0;
            uint32_t sweeps_done = sweeps;
            for (uint32_t s = 0; s < sweeps; ++s) {
                const double beta = betas[s];
                const double thresh = kMaxExpArg / beta;
                bool drew = false;
                for (uint32_t i = 0; i < n; ++i) {
                    // O(1) proposal off the maintained flip delta.
                    // Everything below the cutoff — downhill included
                    // — goes through one uniform draw, leaving the
                    // accept-or-not below as the sweep's only
                    // data-dependent branch (downhill deltas always
                    // accept; see metropolisAccept).
                    const double delta = state.flipDelta(i);
                    if (delta >= thresh)
                        continue;
                    drew = true;
                    if (metropolisAccept(rng, beta * delta))
                        state.flip(i);
                }
                // Proposals are counted as n per sweep (the thresh
                // skip is a rejection taken early).
                if (rec && rec->want(s))
                    rec->record(s, state.energy(), beta,
                                state.flips(), uint64_t{s + 1} * n);
                if (monotone && !drew) {
                    sweeps_done = s + 1;
                    break;
                }
            }
            if (params_.greedy_polish)
                greedyDescent(state);
            // One exact end-of-read evaluation (the inner loops never
            // recompute the full Hamiltonian).
            double e = kernel.energy(state.spins());
            stats::record("anneal.sa.energy", e);
            flips.fetch_add(state.flips(), std::memory_order_relaxed);
            if (rec)
                rec->finish(e, sweeps_done, state.flips(),
                            uint64_t{sweeps_done} * n);
            part.add(state.spins(), e);
        });
    const uint64_t elapsed = stats::Trace::nowNs() - t0;
    detail::recordSampleStats("sa", out,
                              uint64_t{sweeps} * params_.num_reads,
                              elapsed);
    detail::recordKernelStats("sa",
                              flips.load(std::memory_order_relaxed),
                              elapsed);
    return out;
}

} // namespace qac::anneal
