/**
 * @file
 * Tests for the samplers: exact enumeration, simulated annealing,
 * path-integral SQA, the chain-flip annealer, and greedy descent.
 * Stochastic samplers are cross-checked against the exact solver on
 * seeded random instances.
 */

#include <gtest/gtest.h>

#include "qac/anneal/chainflip.h"
#include "qac/anneal/descent.h"
#include "qac/anneal/exact.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/anneal/pathintegral.h"
#include "qac/anneal/simulated.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::anneal {
namespace {

using ising::IsingModel;
using ising::SpinVector;

IsingModel
randomModel(Rng &rng, size_t n, double density = 0.5)
{
    IsingModel m(n);
    for (uint32_t i = 0; i < n; ++i)
        if (rng.chance(0.7))
            m.addLinear(i, rng.uniform() * 2 - 1);
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = i + 1; j < n; ++j)
            if (rng.chance(density))
                m.addQuadratic(i, j, rng.uniform() * 2 - 1);
    return m;
}

// ---------------------------------------------------------------- exact

TEST(Exact, FerromagneticPair)
{
    IsingModel m(2);
    m.addQuadratic(0, 1, -1.0);
    auto res = ExactSolver().solve(m);
    EXPECT_DOUBLE_EQ(res.min_energy, -1.0);
    ASSERT_EQ(res.ground_states.size(), 2u); // ++ and --
}

TEST(Exact, FrustratedTriangle)
{
    // All antiferromagnetic: 6 degenerate ground states at E = -1.
    IsingModel m(3);
    m.addQuadratic(0, 1, 1.0);
    m.addQuadratic(1, 2, 1.0);
    m.addQuadratic(0, 2, 1.0);
    auto res = ExactSolver().solve(m);
    EXPECT_DOUBLE_EQ(res.min_energy, -1.0);
    EXPECT_EQ(res.ground_states.size(), 6u);
}

TEST(Exact, MatchesBruteForce)
{
    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        IsingModel m = randomModel(rng, 10);
        auto res = ExactSolver().solve(m);
        double want = 1e300;
        for (uint64_t k = 0; k < 1024; ++k)
            want = std::min(want, m.energy(ising::indexToSpins(k, 10)));
        EXPECT_NEAR(res.min_energy, want, 1e-9);
        for (const auto &gs : res.ground_states)
            EXPECT_NEAR(m.energy(gs), want, 1e-9);
    }
}

TEST(Exact, VarLimitEnforcedPerComponent)
{
    // The 2^n wall applies to the largest *connected component*: a
    // 5-variable coupled chain trips a max_vars of 4...
    ExactSolver::Params p;
    p.max_vars = 4;
    IsingModel chain(5);
    for (uint32_t i = 0; i + 1 < 5; ++i)
        chain.addQuadratic(i, i + 1, -1.0);
    EXPECT_THROW(ExactSolver(p).solve(chain), FatalError);

    // ...but five uncoupled variables do not.
    IsingModel loose(5);
    for (uint32_t i = 0; i < 5; ++i)
        loose.addLinear(i, 1.0);
    auto res = ExactSolver(p).solve(loose);
    EXPECT_DOUBLE_EQ(res.min_energy, -5.0);
    ASSERT_EQ(res.ground_states.size(), 1u);
    for (auto s : res.ground_states[0])
        EXPECT_EQ(s, -1);
}

TEST(Exact, ComponentDecompositionMatchesDense)
{
    // Two coupled blocks with no cross terms: the composed result must
    // equal the dense enumeration, including the full ground-state
    // set (here 2 x 2 degenerate ferromagnetic pairs).
    IsingModel m(4);
    m.addQuadratic(0, 1, -1.0);
    m.addQuadratic(2, 3, -1.0);
    auto res = ExactSolver().solve(m);
    EXPECT_DOUBLE_EQ(res.min_energy, -2.0);
    EXPECT_EQ(res.ground_states.size(), 4u);
    for (const auto &gs : res.ground_states) {
        EXPECT_EQ(gs[0], gs[1]);
        EXPECT_EQ(gs[2], gs[3]);
        EXPECT_NEAR(m.energy(gs), -2.0, 1e-12);
    }
}

TEST(Exact, EmptyModel)
{
    IsingModel m(0);
    auto res = ExactSolver().solve(m);
    EXPECT_DOUBLE_EQ(res.min_energy, 0.0);
}

// -------------------------------------------------------------- sampleset

TEST(SampleSet, AggregatesDuplicates)
{
    SampleSet set;
    set.add({1, -1}, 0.5);
    set.add({1, -1}, 0.5);
    set.add({-1, 1}, -0.5);
    set.finalize();
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.totalReads(), 3u);
    EXPECT_DOUBLE_EQ(set.best().energy, -0.5);
    EXPECT_EQ(set.samples()[1].num_occurrences, 2u);
    EXPECT_NEAR(set.groundFraction(), 1.0 / 3.0, 1e-12);
}

TEST(SampleSet, LowestBandTolerance)
{
    SampleSet set;
    set.add({1}, 1.0);
    set.add({-1}, 1.0 + 1e-12);
    set.finalize();
    EXPECT_EQ(set.lowestBand(1e-9).size(), 2u);
    EXPECT_EQ(set.lowestBand(0.0).size(), 1u);
}

// -------------------------------------------------------------- descent

TEST(Descent, ReachesLocalMinimum)
{
    Rng rng(22);
    IsingModel m = randomModel(rng, 12);
    SpinVector spins(12);
    for (auto &s : spins)
        s = rng.spin();
    double gain = greedyDescent(m, spins);
    EXPECT_LE(gain, 0.0);
    // No single flip can improve further.
    for (uint32_t i = 0; i < 12; ++i)
        EXPECT_GE(m.flipDelta(spins, i), -1e-9);
}

TEST(Descent, PolishNeverWorsens)
{
    Rng rng(23);
    IsingModel m = randomModel(rng, 10);
    SimulatedAnnealer::Params p;
    p.num_reads = 20;
    p.sweeps = 4; // deliberately poor anneal
    auto raw = SimulatedAnnealer(p).sample(m);
    auto polished = polish(m, raw);
    EXPECT_LE(polished.best().energy, raw.best().energy + 1e-12);
}

// -------------------------------------------------------------- samplers

/** Shared check: a sampler reaches the exact ground energy. */
template <typename Sampler>
void
expectReachesGround(Sampler &&sampler, size_t n, uint64_t seed,
                    int trials = 5)
{
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
        IsingModel m = randomModel(rng, n);
        double want = ExactSolver().minEnergy(m);
        auto set = sampler(m);
        EXPECT_NEAR(set.best().energy, want, 1e-9) << "trial " << t;
    }
}

TEST(SimulatedAnnealing, ReachesGroundOnRandomModels)
{
    SimulatedAnnealer::Params p;
    p.num_reads = 24;
    p.sweeps = 128;
    p.seed = 31;
    expectReachesGround(
        [&](const IsingModel &m) {
            return SimulatedAnnealer(p).sample(m);
        },
        14, 31);
}

TEST(SimulatedAnnealing, DeterministicBySeed)
{
    Rng rng(32);
    IsingModel m = randomModel(rng, 10);
    SimulatedAnnealer::Params p;
    p.num_reads = 10;
    p.sweeps = 32;
    auto a = SimulatedAnnealer(p).sample(m);
    auto b = SimulatedAnnealer(p).sample(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a.best().energy, b.best().energy);
}

TEST(SimulatedAnnealing, BetaRangeSane)
{
    Rng rng(33);
    IsingModel m = randomModel(rng, 8);
    auto [b0, b1] = SimulatedAnnealer::defaultBetaRange(m);
    EXPECT_GT(b0, 0.0);
    EXPECT_GT(b1, b0);
}

TEST(SimulatedAnnealing, PackedPassCountDoesNotWrap)
{
    // 64 lanes to a pass; --reads accepts up to UINT32_MAX, where
    // rounding up in 32 bits wrapped to zero passes.
    EXPECT_EQ(packedPasses(0), 0u);
    EXPECT_EQ(packedPasses(1), 1u);
    EXPECT_EQ(packedPasses(64), 1u);
    EXPECT_EQ(packedPasses(65), 2u);
    EXPECT_EQ(packedPasses(UINT32_MAX), 67108864u);
}

TEST(PathIntegral, ReachesGroundOnRandomModels)
{
    PathIntegralAnnealer::Params p;
    p.num_reads = 10;
    p.sweeps = 64;
    p.trotter_slices = 8;
    p.seed = 41;
    expectReachesGround(
        [&](const IsingModel &m) {
            return PathIntegralAnnealer(p).sample(m);
        },
        12, 41, 3);
}

TEST(ChainFlip, CompositeDeltaIsExact)
{
    // Build a chained model and verify composite-move acceptance uses
    // the true energy change: flipping a chain by hand must match.
    Rng rng(51);
    IsingModel m = randomModel(rng, 9, 0.7);
    std::vector<std::vector<uint32_t>> chains = {{0, 1, 2}, {3, 4},
                                                 {5}, {6, 7, 8}};
    // Strong intra-chain ferromagnetic couplings.
    for (const auto &c : chains)
        for (size_t i = 0; i + 1 < c.size(); ++i)
            m.addQuadratic(c[i], c[i + 1], -3.0);

    SpinVector spins(9);
    for (auto &s : spins)
        s = rng.spin();
    for (const auto &c : chains) {
        double before = m.energy(spins);
        // Composite delta as the annealer computes it.
        double delta = 0;
        for (uint32_t q : c)
            delta += m.flipDelta(spins, q);
        for (size_t i = 0; i < c.size(); ++i)
            for (size_t j = i + 1; j < c.size(); ++j)
                delta += 4.0 * m.quadratic(c[i], c[j]) * spins[c[i]] *
                    spins[c[j]];
        for (uint32_t q : c)
            spins[q] = static_cast<ising::Spin>(-spins[q]);
        EXPECT_NEAR(m.energy(spins), before + delta, 1e-9);
    }
}

TEST(ChainFlip, SolvesChainedModelWhereSingleFlipStalls)
{
    // A 3-logical-variable frustrated model, each variable a 5-qubit
    // chain with strong couplings: plain SA at few sweeps rarely finds
    // the ground state; chain moves do.
    IsingModel logical(3);
    logical.addLinear(0, 0.8);
    logical.addQuadratic(0, 1, 1.0);
    logical.addQuadratic(1, 2, 1.0);
    logical.addQuadratic(0, 2, 1.0);

    const int L = 5;
    IsingModel phys(3 * L);
    std::vector<std::vector<uint32_t>> chains(3);
    for (uint32_t v = 0; v < 3; ++v)
        for (int k = 0; k < L; ++k)
            chains[v].push_back(v * L + k);
    for (uint32_t v = 0; v < 3; ++v) {
        phys.addLinear(chains[v][0], logical.linear(v));
        for (int k = 0; k + 1 < L; ++k)
            phys.addQuadratic(chains[v][k], chains[v][k + 1], -2.0);
    }
    for (const auto &t : logical.quadraticTerms())
        phys.addQuadratic(chains[t.i].back(), chains[t.j].back(),
                          t.value);

    double want = ExactSolver().minEnergy(phys);
    ChainFlipAnnealer::Params p;
    p.num_reads = 20;
    p.sweeps = 64;
    p.seed = 61;
    auto set = ChainFlipAnnealer(p, chains).sample(phys);
    EXPECT_NEAR(set.best().energy, want, 1e-9);
}

TEST(Samplers, EmptyModelIsHandled)
{
    IsingModel m(0);
    EXPECT_TRUE(SimulatedAnnealer().sample(m).empty());
    EXPECT_TRUE(PathIntegralAnnealer().sample(m).empty());
}

} // namespace
} // namespace qac::anneal
