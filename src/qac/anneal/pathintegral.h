/**
 * @file
 * Path-integral Monte-Carlo simulated quantum annealing (SQA).
 *
 * The closest software analogue of the D-Wave annealing process the
 * paper runs on (Section 2): the transverse-field Ising Hamiltonian is
 * Trotter-decomposed into M coupled replicas of the classical problem;
 * the transverse field Gamma(t) is ramped down over the anneal, its
 * strength entering as the inter-replica coupling
 *
 *     J_perp(t) = -(1 / (2 beta_slice)) ln tanh(Gamma(t) beta_slice),
 *
 * at total inverse temperature beta = 8 (beta_slice = beta / M), with
 * Gamma ramped from 3x the model's largest coefficient down to 0.01.
 *
 * The paper itself cites this technique as a hardware-comparable
 * classical substitute (Hitachi's "simulated quantum annealer" [48]).
 */

#ifndef QAC_ANNEAL_PATHINTEGRAL_H
#define QAC_ANNEAL_PATHINTEGRAL_H

#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/model.h"

namespace qac::anneal {

class PathIntegralAnnealer : public Sampler
{
  public:
    struct Params : CommonParams
    {
        Params() { num_reads = 25; }
        uint32_t sweeps = 128;        ///< Gamma steps per anneal
        uint32_t trotter_slices = 16; ///< replicas M
    };

    PathIntegralAnnealer() = default;
    explicit PathIntegralAnnealer(Params params) : params_(params) {}

    /** Anneal; each read reports its best slice (greedy-polished). */
    SampleSet sample(const ising::IsingModel &model) const override;

  private:
    Params params_{};
};

} // namespace qac::anneal

#endif // QAC_ANNEAL_PATHINTEGRAL_H
