/**
 * @file
 * Exhaustive ground-state enumeration for small Ising models.
 *
 * Gray-code enumeration with incremental energy updates; the reference
 * oracle every stochastic sampler is tested against.
 */

#ifndef QAC_ANNEAL_EXACT_H
#define QAC_ANNEAL_EXACT_H

#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/model.h"

namespace qac::anneal {

/** Most ground states an ExactResult lists; the rest set truncated. */
constexpr size_t kMaxGroundStates = 4096;

struct ExactResult
{
    double min_energy = 0.0;
    /** All minimizing assignments (capped at kMaxGroundStates). */
    std::vector<ising::SpinVector> ground_states;
    bool truncated = false;
};

class ExactSolver : public Sampler
{
  public:
    struct Params
    {
        size_t max_vars = 28;
        /** Enumeration-shard workers; 0 = hardware concurrency.  Shard
         *  boundaries are a fixed function of problem size, so the
         *  result is identical for any thread count. */
        uint32_t threads = 0;
    };

    ExactSolver() = default;
    explicit ExactSolver(Params params) : params_(params) {}

    /**
     * Enumerate all assignments.  The coupling graph is split into
     * connected components, each enumerated independently (energies
     * are additive) and the ground-state sets composed, so max_vars
     * bounds the largest *component*, not the whole model.  Fatal
     * when a component exceeds max_vars.
     */
    ExactResult solve(const ising::IsingModel &model) const;

    /** Global minimum energy only. */
    double minEnergy(const ising::IsingModel &model) const;

    /** Sampler view: every ground state once, at the minimum energy. */
    SampleSet sample(const ising::IsingModel &model) const override;

  private:
    ExactResult
    solveComposed(const ising::IsingModel &model,
                  const std::vector<std::vector<uint32_t>> &comps)
        const;

    Params params_{};
};

} // namespace qac::anneal

#endif // QAC_ANNEAL_EXACT_H
