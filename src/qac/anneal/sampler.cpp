#include "qac/anneal/sampler.h"

#include <algorithm>
#include <mutex>

#include "qac/anneal/chainflip.h"
#include "qac/anneal/descent.h"
#include "qac/anneal/exact.h"
#include "qac/anneal/parallel_reads.h"
#include "qac/anneal/pathintegral.h"
#include "qac/anneal/qbsolv.h"
#include "qac/anneal/simulated.h"
#include "qac/exec/exec.h"

namespace qac::anneal {

namespace detail {

SampleSet
sampleReads(uint32_t num_reads, uint32_t threads,
            const std::function<void(uint32_t read, SampleSet &part)>
                &read_fn)
{
    SampleSet out;
    if (num_reads == 0) {
        out.finalize();
        return out;
    }
    // Chunk size depends only on num_reads, never the thread count;
    // read k derives its randomness from streamAt(seed, k) and the
    // merged set finalizes canonically, so the chunking is invisible
    // in the result.
    const uint32_t chunk = std::max<uint32_t>(1, num_reads / 64);
    const uint32_t nchunks = (num_reads + chunk - 1) / chunk;
    std::vector<SampleSet> parts(nchunks);
    exec::parallelFor(nchunks, threads, [&](size_t c) {
        const uint32_t lo = static_cast<uint32_t>(c) * chunk;
        const uint32_t hi = std::min(num_reads, lo + chunk);
        for (uint32_t r = lo; r < hi; ++r)
            read_fn(r, parts[c]);
    });
    for (auto &part : parts)
        out.merge(std::move(part));
    out.finalize();
    return out;
}

} // namespace detail

namespace {

double
extraOr(const SamplerOpts &opts, const std::string &key, double fallback)
{
    auto it = opts.extra.find(key);
    return it == opts.extra.end() ? fallback : it->second;
}

std::map<std::string, SamplerBuilder> &
registry()
{
    static std::map<std::string, SamplerBuilder> builders = {
        {"sa",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             SimulatedAnnealer::Params p;
             static_cast<CommonParams &>(p) = o.common;
             if (o.sweeps > 0)
                 p.sweeps = o.sweeps;
             p.greedy_polish = o.greedy_polish;
             return std::make_unique<SimulatedAnnealer>(p);
         }},
        {"sqa",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             PathIntegralAnnealer::Params p;
             static_cast<CommonParams &>(p) = o.common;
             if (o.sweeps > 0)
                 p.sweeps = o.sweeps;
             p.trotter_slices = static_cast<uint32_t>(
                 extraOr(o, "sqa.trotter_slices", p.trotter_slices));
             return std::make_unique<PathIntegralAnnealer>(p);
         }},
        {"exact",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             ExactSolver::Params p;
             p.threads = o.common.threads;
             return std::make_unique<ExactSolver>(p);
         }},
        {"qbsolv",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             QbsolvSolver::Params p;
             static_cast<CommonParams &>(p) = o.common;
             p.subproblem_size = static_cast<size_t>(
                 extraOr(o, "qbsolv.subproblem_size", p.subproblem_size));
             // One restart per ~25 reads: qbsolv reports one sample
             // per restart, so num_reads scales work comparably to
             // the per-read samplers.
             p.restarts = static_cast<uint32_t>(extraOr(
                 o, "qbsolv.restarts",
                 std::max<uint32_t>(1, o.common.num_reads / 25)));
             uint32_t outer = p.outer_iterations;
             if (o.sweeps > 0)
                 outer = std::max<uint32_t>(8, o.sweeps / 32);
             p.outer_iterations = static_cast<uint32_t>(
                 extraOr(o, "qbsolv.outer_iterations", outer));
             return std::make_unique<QbsolvSolver>(p);
         }},
        {"descent",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             DescentSampler::Params p;
             static_cast<CommonParams &>(p) = o.common;
             return std::make_unique<DescentSampler>(p);
         }},
        {"chainflip",
         [](const SamplerOpts &o) -> std::unique_ptr<Sampler> {
             ChainFlipAnnealer::Params p;
             static_cast<CommonParams &>(p) = o.common;
             if (o.sweeps > 0)
                 p.sweeps = o.sweeps;
             p.greedy_polish = o.greedy_polish;
             return std::make_unique<ChainFlipAnnealer>(p, o.chains);
         }},
    };
    return builders;
}

std::mutex &
registryMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

UnknownSolverError::UnknownSolverError(const std::string &name)
    : FatalError("unknown solver '" + name + "' (expected " +
                 samplerNamesJoined() + ")"),
      name_(name)
{}

std::unique_ptr<Sampler>
makeSampler(const std::string &name, const SamplerOpts &opts)
{
    SamplerBuilder builder;
    {
        std::lock_guard<std::mutex> lock(registryMutex());
        auto it = registry().find(name);
        if (it != registry().end())
            builder = it->second;
    }
    if (!builder)
        throw UnknownSolverError(name);
    return builder(opts);
}

bool
hasSampler(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    return registry().count(name) != 0;
}

std::vector<std::string>
samplerNames()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, builder] : registry())
        names.push_back(name);
    return names; // std::map iteration is already sorted
}

std::string
samplerNamesJoined()
{
    std::string joined;
    for (const auto &name : samplerNames()) {
        if (!joined.empty())
            joined += '|';
        joined += name;
    }
    return joined;
}

void
registerSampler(const std::string &name, SamplerBuilder builder)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    registry()[name] = std::move(builder);
}

} // namespace qac::anneal
