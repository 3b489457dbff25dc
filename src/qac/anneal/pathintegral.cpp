#include "qac/anneal/pathintegral.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/descent.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/ising/compiled.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::anneal {

namespace {

constexpr double kBeta = 8.0;         ///< total inverse temperature
constexpr double kGammaFinal = 0.01;  ///< transverse field at the end

} // namespace

SampleSet
PathIntegralAnnealer::sample(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();
    SampleSet out;
    if (n == 0) {
        out.finalize();
        return out;
    }

    stats::ScopedTimer timer("anneal.sqa.time");
    const uint64_t t0 = stats::Trace::nowNs();

    const uint32_t slices = std::max<uint32_t>(2, params_.trotter_slices);
    const double beta_slice = kBeta / slices;

    double max_scale = std::max(model.maxAbsLinear(),
                                model.maxAbsQuadratic());
    if (max_scale <= 0)
        max_scale = 1.0;
    const double g0 = 3.0 * max_scale; // transverse field at the start

    const ising::CompiledModel kernel(model);
    const uint32_t sweeps = std::max<uint32_t>(2, params_.sweeps);
    std::atomic<uint64_t> flips{0};
    telemetry::RunTrace *trun =
        telemetry::Collector::global().beginRun("sqa",
                                                params_.num_reads);

    out = detail::sampleReads(
        params_.num_reads, params_.threads,
        [&](uint32_t read, SampleSet &part) {
        Rng rng = Rng::streamAt(params_.seed, read);
        telemetry::ReadRecorder *rec =
            trun ? trun->recorder(read) : nullptr;
        // Replica-major layout: one incremental field state per
        // Trotter slice; the inter-slice coupling is handled on top of
        // each slice's classical delta.
        std::vector<ising::LocalFieldState> rep(
            slices, ising::LocalFieldState(kernel));
        {
            ising::SpinVector init(n);
            for (auto &state : rep) {
                for (auto &s : init)
                    s = rng.spin();
                state.reset(init);
            }
        }

        for (uint32_t t = 0; t < sweeps; ++t) {
            double frac = static_cast<double>(t) / (sweeps - 1);
            // Linear Gamma ramp in log space (smooth schedule).
            double gamma = g0 * std::pow(kGammaFinal / g0, frac);
            double x = std::tanh(gamma * beta_slice);
            // Ferromagnetic inter-slice coupling; grows as Gamma -> 0.
            double jperp =
                -0.5 / beta_slice * std::log(std::max(x, 1e-300));

            for (uint32_t m = 0; m < slices; ++m) {
                const auto &up = rep[(m + 1) % slices].spins();
                const auto &dn = rep[(m + slices - 1) % slices].spins();
                auto &cur = rep[m];
                for (uint32_t i = 0; i < n; ++i) {
                    // Classical part from the O(1) incremental field;
                    // imaginary-time neighbors added explicitly.
                    // delta is already in units of beta * E.
                    double delta =
                        beta_slice * cur.flipDelta(i) +
                        2.0 * cur.spin(i) * jperp * beta_slice *
                            (up[i] + dn[i]);
                    if (delta <= 0.0 ||
                        metropolisAccept(rng, delta))
                        cur.flip(i);
                }
            }
            if (rec && rec->want(t)) {
                // Best tracked replica energy; the schedule point is
                // the transverse field Gamma.
                double e_min = rep[0].energy();
                uint64_t accepts = rep[0].flips();
                for (uint32_t m = 1; m < slices; ++m) {
                    e_min = std::min(e_min, rep[m].energy());
                    accepts += rep[m].flips();
                }
                rec->record(t, e_min, gamma, accepts,
                            uint64_t{t + 1} * slices * n);
            }
        }

        // Report the best replica, greedy-polished (the D-Wave also
        // applies classical postprocessing by default).  The tracked
        // energies pick the winner; the reported value is one exact
        // end-of-read evaluation.
        uint32_t best_m = 0;
        for (uint32_t m = 1; m < slices; ++m)
            if (rep[m].energy() < rep[best_m].energy())
                best_m = m;
        ising::LocalFieldState &best = rep[best_m];
        greedyDescent(best);
        double e = kernel.energy(best.spins());
        stats::record("anneal.sqa.energy", e);
        uint64_t read_flips = 0;
        for (const auto &state : rep)
            read_flips += state.flips();
        flips.fetch_add(read_flips, std::memory_order_relaxed);
        if (rec)
            rec->finish(e, sweeps, read_flips,
                        uint64_t{sweeps} * slices * n);
        part.add(best.spins(), e);
    });
    const uint64_t elapsed = stats::Trace::nowNs() - t0;
    // Each sweep touches every Trotter slice once.
    detail::recordSampleStats("sqa", out,
                              uint64_t{sweeps} * slices *
                                  params_.num_reads,
                              elapsed);
    detail::recordKernelStats("sqa",
                              flips.load(std::memory_order_relaxed),
                              elapsed);
    return out;
}

} // namespace qac::anneal
