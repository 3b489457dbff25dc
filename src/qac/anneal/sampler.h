/**
 * @file
 * The unified sampler API.
 *
 * Every classical stand-in for the D-Wave hardware — simulated
 * annealing, path-integral SQA, the chain-flip annealer, greedy
 * descent, exact enumeration, and the qbsolv decomposer — sits behind
 * one abstract Sampler with a shared CommonParams (seed, num_reads,
 * threads) and a string-keyed factory, so tools, benches, and the
 * compiler core never dispatch on concrete classes.
 *
 * Determinism contract: for a fixed seed, sample() returns a
 * bitwise-identical SampleSet regardless of the threads setting.
 * Read/restart k always draws from Rng::streamAt(seed, k).
 */

#ifndef QAC_ANNEAL_SAMPLER_H
#define QAC_ANNEAL_SAMPLER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qac/anneal/sampleset.h"
#include "qac/ising/model.h"
#include "qac/util/logging.h"

namespace qac::anneal {

/** Knobs shared by every sampler's Params (via inheritance). */
struct CommonParams
{
    uint32_t num_reads = 100; ///< independent reads / restarts
    uint64_t seed = 1;        ///< base seed; read k uses streamAt(seed, k)
    uint32_t threads = 0;     ///< worker threads; 0 = hardware concurrency
};

/** Abstract sampler: minimize an Ising model, report a SampleSet. */
class Sampler
{
  public:
    virtual ~Sampler() = default;

    /**
     * Draw samples from @p model.  Bitwise-deterministic for a fixed
     * seed regardless of the threads setting.
     */
    virtual SampleSet sample(const ising::IsingModel &model) const = 0;
};

/**
 * Options every makeSampler builder understands.  Sampler-specific
 * knobs beyond these travel in the string-keyed @p extra map, e.g.
 * "qbsolv.subproblem_size", "qbsolv.outer_iterations",
 * "qbsolv.restarts", "sqa.trotter_slices", "sqa.beta".
 */
struct SamplerOpts
{
    CommonParams common;
    uint32_t sweeps = 0;       ///< anneal length; 0 = sampler default
    bool greedy_polish = true; ///< steepest-descent after each read
    /** Chain groups for "chainflip" (EmbeddedModel::dense_chains). */
    std::vector<std::vector<uint32_t>> chains;
    std::map<std::string, double> extra;
};

/**
 * Thrown by makeSampler for a name with no registration.  Derives
 * FatalError so tool mains that already catch user errors report it
 * cleanly; programmatic callers (the service daemon's request
 * validation) catch it by type and answer with a typed error frame
 * instead of dying.
 */
class UnknownSolverError : public FatalError
{
  public:
    explicit UnknownSolverError(const std::string &name);

    /** The name that failed to resolve. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * Build the sampler registered under @p name ("sa", "sqa", "exact",
 * "qbsolv", "descent", "chainflip", plus any registerSampler
 * extensions).  Never returns nullptr: an unknown name throws
 * UnknownSolverError (probe with hasSampler() first when an error is
 * expected and cheap rejection is wanted).
 */
std::unique_ptr<Sampler> makeSampler(const std::string &name,
                                     const SamplerOpts &opts);

/** True when @p name has a registered builder. */
bool hasSampler(const std::string &name);

/** All registered sampler names, sorted. */
std::vector<std::string> samplerNames();

/** "a|b|c" over samplerNames(), for usage strings. */
std::string samplerNamesJoined();

using SamplerBuilder =
    std::function<std::unique_ptr<Sampler>(const SamplerOpts &)>;

/** Extend or override the factory registration for @p name. */
void registerSampler(const std::string &name, SamplerBuilder builder);

} // namespace qac::anneal

#endif // QAC_ANNEAL_SAMPLER_H
