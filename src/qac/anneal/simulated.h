/**
 * @file
 * Metropolis simulated annealing (Kirkpatrick et al. 1983).
 *
 * The paper notes the generated H(sigma) "can be minimized in software
 * on conventional computers using, e.g., simulated annealing" (Section
 * 2) — this sampler is QAC's workhorse classical substitute for the
 * D-Wave 2000Q.
 */

#ifndef QAC_ANNEAL_SIMULATED_H
#define QAC_ANNEAL_SIMULATED_H

#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/util/rng.h"

namespace qac::anneal {

class SimulatedAnnealer : public Sampler
{
  public:
    struct Params : CommonParams
    {
        uint32_t sweeps = 256;     ///< full-lattice sweeps per anneal
        bool greedy_polish = false; ///< steepest-descent after each read
    };

    SimulatedAnnealer() = default;
    explicit SimulatedAnnealer(Params params) : params_(params) {}

    SampleSet sample(const ising::IsingModel &model) const override;

    /** The (beta_initial, beta_final) schedule endpoints, derived from
     *  the model's energy scales (neal-style). */
    static std::pair<double, double>
    defaultBetaRange(const ising::IsingModel &model);

    /** Same derivation, straight off an already-compiled kernel. */
    static std::pair<double, double>
    defaultBetaRange(const ising::CompiledModel &kernel);

  private:
    Params params_{};
};

} // namespace qac::anneal

#endif // QAC_ANNEAL_SIMULATED_H
