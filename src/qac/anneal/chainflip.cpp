#include "qac/anneal/chainflip.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qac/anneal/anneal_stats.h"
#include "qac/anneal/descent.h"
#include "qac/anneal/metropolis.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/anneal/simulated.h"
#include "qac/ising/compiled.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::anneal {

SampleSet
ChainFlipAnnealer::sample(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();
    SampleSet out;
    if (n == 0) {
        out.finalize();
        return out;
    }

    stats::ScopedTimer timer("anneal.chainflip.time");
    const uint64_t t0 = stats::Trace::nowNs();

    const ising::CompiledModel kernel(model);

    const auto [b0, b1] = SimulatedAnnealer::defaultBetaRange(kernel);

    // Precompute each chain's internal couplings; flipping the whole
    // chain leaves them unchanged, so the summed single-flip deltas
    // must be corrected by +4 J sigma_i sigma_j per internal edge.
    struct InternalEdge
    {
        uint32_t i, j;
        double w;
    };
    const auto &row = kernel.rowOffsets();
    const auto &nbr = kernel.neighbors();
    const auto &wgt = kernel.weights();
    std::vector<std::vector<InternalEdge>> internal(chains_.size());
    for (size_t c = 0; c < chains_.size(); ++c) {
        std::vector<bool> member(n, false);
        for (uint32_t q : chains_[c])
            member[q] = true;
        for (uint32_t q : chains_[c])
            for (uint32_t k = row[q]; k < row[q + 1]; ++k)
                if (member[nbr[k]] && q < nbr[k])
                    internal[c].push_back({q, nbr[k], wgt[k]});
    }

    const uint32_t sweeps = std::max<uint32_t>(1, params_.sweeps);
    double ratio =
        (sweeps > 1) ? std::pow(b1 / b0, 1.0 / (sweeps - 1)) : 1.0;

    std::atomic<uint64_t> flips{0};
    telemetry::RunTrace *trun =
        telemetry::Collector::global().beginRun("chainflip",
                                                params_.num_reads);
    // An accepted composite move flips every chain member (each bumps
    // the flips() counter), so proposals are counted in member flips —
    // chain members plus the single-qubit pass — keeping the derived
    // acceptance rate in [0, 1].
    uint64_t proposals_per_sweep = n;
    for (const auto &c : chains_)
        proposals_per_sweep += c.size();

    out = detail::sampleReads(
        params_.num_reads, params_.threads,
        [&](uint32_t read, SampleSet &part) {
        Rng rng = Rng::streamAt(params_.seed, read);
        ising::SpinVector spins(n);
        for (auto &s : spins)
            s = rng.spin();
        ising::LocalFieldState state(kernel);
        state.reset(spins);
        telemetry::ReadRecorder *rec =
            trun ? trun->recorder(read) : nullptr;

        double beta = b0;
        for (uint32_t sw = 0; sw < sweeps; ++sw, beta *= ratio) {
            // Composite chain moves: the acceptance delta sums the
            // members' O(1) incremental deltas (frozen state) plus the
            // internal-edge correction; the accepted flip applies the
            // member flips sequentially, which lands on exactly that
            // composite delta.
            for (size_t c = 0; c < chains_.size(); ++c) {
                double delta = 0.0;
                for (uint32_t q : chains_[c])
                    delta += state.flipDelta(q);
                const auto &sp = state.spins();
                for (const auto &e : internal[c])
                    delta += 4.0 * e.w * sp[e.i] * sp[e.j];
                if (delta <= 0.0 ||
                    metropolisAccept(rng, beta * delta)) {
                    for (uint32_t q : chains_[c])
                        state.flip(q);
                }
            }
            // Single-qubit relaxation.
            for (uint32_t i = 0; i < n; ++i) {
                double delta = state.flipDelta(i);
                if (delta <= 0.0 ||
                    metropolisAccept(rng, beta * delta))
                    state.flip(i);
            }
            if (rec && rec->want(sw))
                rec->record(sw, state.energy(), beta, state.flips(),
                            uint64_t{sw + 1} * proposals_per_sweep);
        }
        if (params_.greedy_polish)
            greedyDescent(state);
        // One exact end-of-read evaluation.
        double e = kernel.energy(state.spins());
        stats::record("anneal.chainflip.energy", e);
        flips.fetch_add(state.flips(), std::memory_order_relaxed);
        if (rec)
            rec->finish(e, sweeps, state.flips(),
                        uint64_t{sweeps} * proposals_per_sweep);
        part.add(state.spins(), e);
    });
    const uint64_t elapsed = stats::Trace::nowNs() - t0;
    detail::recordSampleStats("chainflip", out,
                              uint64_t{sweeps} * params_.num_reads,
                              elapsed);
    detail::recordKernelStats("chainflip",
                              flips.load(std::memory_order_relaxed),
                              elapsed);
    return out;
}

} // namespace qac::anneal
