/**
 * @file
 * Unit-level contract of the packed multi-spin kernel (DESIGN.md §13):
 * ising::PackedState must mirror LocalFieldState bit for bit per lane
 * (reset, flips, deltas, energies), anneal::LaneRngs must step each
 * lane's xoshiro stream exactly as Rng does, and the scalar and AVX2
 * sweep engines must be interchangeable — identical planes, spin
 * words, RNG states, and accept history after every sweep.  The
 * sampler-level lane-parity tests (SampleSet + telemetry byte
 * identity) live in kernel_test.cpp.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qac/anneal/metropolis.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/ising/packed.h"
#include "qac/util/cpu.h"
#include "qac/util/rng.h"

namespace {

using namespace qac;

constexpr uint32_t kLanes = ising::PackedState::kLanes;

ising::IsingModel
randomSparseModel(uint64_t seed, size_t n, size_t degree = 6)
{
    Rng rng(seed);
    ising::IsingModel m(n);
    for (uint32_t i = 0; i < n; ++i)
        m.addLinear(i, rng.uniform() * 2 - 1);
    for (uint32_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < degree / 2; ++k) {
            uint32_t j = static_cast<uint32_t>(rng.below(n));
            if (i != j)
                m.addQuadratic(i, j, rng.uniform() * 2 - 1);
        }
    }
    return m;
}

ising::SpinVector
randomSpins(Rng &rng, size_t n)
{
    ising::SpinVector spins(n);
    for (auto &s : spins)
        s = rng.spin();
    return spins;
}

// ------------------------------------------------------- PackedState

TEST(PackedState, ResetLaneMirrorsLocalFieldStateBitwise)
{
    ising::IsingModel m = randomSparseModel(3, 40);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(17);

    std::vector<ising::LocalFieldState> walkers;
    for (uint32_t l = 0; l < 5; ++l) {
        ising::SpinVector spins = randomSpins(rng, m.numVars());
        packed.resetLane(l, spins);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
    }
    EXPECT_EQ(packed.activeMask(), 0x1fu);
    for (uint32_t l = 0; l < 5; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i))
                << "lane " << l << " var " << i; // bitwise
        EXPECT_EQ(packed.laneEnergy(l), walkers[l].energy()) << l;
    }
}

TEST(PackedState, ApplyFlipsMirrorsPerLaneFlipsBitwise)
{
    ising::IsingModel m = randomSparseModel(5, 32);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(23);

    std::vector<ising::LocalFieldState> walkers;
    for (uint32_t l = 0; l < kLanes; ++l) {
        ising::SpinVector spins = randomSpins(rng, m.numVars());
        packed.resetLane(l, spins);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
    }

    for (int step = 0; step < 500; ++step) {
        const uint32_t i =
            static_cast<uint32_t>(rng.below(m.numVars()));
        const uint64_t accept = rng.next();
        packed.applyFlips(i, accept);
        for (uint32_t l = 0; l < kLanes; ++l)
            if ((accept >> l) & 1)
                walkers[l].flip(i);
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        EXPECT_EQ(packed.flips(l), walkers[l].flips()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i))
                << "lane " << l << " var " << i;
        EXPECT_EQ(packed.laneEnergy(l), walkers[l].energy()) << l;
    }
}

TEST(PackedState, CandidateMaskMatchesPerLaneThresholdTest)
{
    ising::IsingModel m = randomSparseModel(7, 24);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(29);
    for (uint32_t l = 0; l < kLanes; ++l)
        packed.resetLane(l, randomSpins(rng, m.numVars()));

    for (double thresh : {-0.5, 0.0, 0.75, 2.0, 40.0}) {
        for (uint32_t i = 0; i < m.numVars(); ++i) {
            const uint64_t mask = packed.candidateMask(i, thresh);
            for (uint32_t l = 0; l < kLanes; ++l) {
                const bool want =
                    packed.laneDeltas(l)[i] < thresh;
                EXPECT_EQ((mask >> l) & 1, want ? 1u : 0u)
                    << "thresh " << thresh << " var " << i
                    << " lane " << l;
            }
            // The refreshed min summary is consistent: no candidates
            // iff the min sits at or above the threshold.
            EXPECT_EQ(mask == 0, packed.minDelta()[i] >= thresh);
        }
    }
}

TEST(PackedState, InactiveLanesNeverPropose)
{
    // Ragged-tail shape: only 3 of 64 lanes live.  The inactive lanes
    // must produce no candidates at any threshold and must not perturb
    // the live lanes' planes.
    ising::IsingModel m = randomSparseModel(9, 20);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    Rng rng(31);
    for (uint32_t l = 0; l < 3; ++l)
        packed.resetLane(l, randomSpins(rng, m.numVars()));
    EXPECT_EQ(packed.activeMask(), 0x7u);

    const double huge = std::numeric_limits<double>::max();
    for (uint32_t i = 0; i < m.numVars(); ++i) {
        const uint64_t mask = packed.candidateMask(i, huge);
        EXPECT_EQ(mask & ~0x7u, 0u) << i;
        EXPECT_EQ(mask, 0x7u) << i; // finite deltas all clear `huge`
    }
}

// ---------------------------------------------------------- LaneRngs

TEST(LaneRngs, StepsMatchRngBitwise)
{
    anneal::LaneRngs lanes;
    std::vector<Rng> refs;
    for (uint32_t l = 0; l < kLanes; ++l) {
        Rng r = Rng::streamAt(77, l);
        lanes.set(l, r);
        refs.push_back(r);
    }
    // Interleaved, lane-dependent consumption: lane l draws l+1 times
    // per round, exercising state independence across the SoA planes.
    for (int round = 0; round < 8; ++round) {
        for (uint32_t l = 0; l < kLanes; ++l) {
            for (uint32_t d = 0; d <= l % 4; ++d) {
                EXPECT_EQ(lanes.next(l), refs[l].next())
                    << "lane " << l;
                EXPECT_EQ(lanes.uniform(l), refs[l].uniform())
                    << "lane " << l; // bitwise
            }
        }
    }
}

// ------------------------------------------------------ sweep engines

TEST(PackedSweep, ScalarEngineMatchesPerLaneWalkers)
{
    // One packed sweep == 64 scalar Metropolis sweeps, bit for bit:
    // spins, deltas, flip counts, and RNG consumption.
    ising::IsingModel m = randomSparseModel(13, 48);
    ising::CompiledModel k(m);
    ising::PackedState packed(k);
    anneal::LaneRngs lanes;
    std::vector<ising::LocalFieldState> walkers;
    std::vector<Rng> refs;
    for (uint32_t l = 0; l < kLanes; ++l) {
        Rng r = Rng::streamAt(5, l);
        ising::SpinVector spins = randomSpins(r, m.numVars());
        packed.resetLane(l, spins);
        lanes.set(l, r);
        walkers.emplace_back(k);
        walkers.back().reset(spins);
        refs.push_back(r);
    }

    const double betas[] = {0.2, 0.5, 1.1, 2.4, 6.0, 20.0};
    for (const double beta : betas) {
        const double thresh = anneal::kMaxExpArg / beta;
        anneal::packedSweepScalar(packed, lanes, beta, thresh);
        for (uint32_t l = 0; l < kLanes; ++l) {
            auto &st = walkers[l];
            for (uint32_t i = 0; i < m.numVars(); ++i) {
                const double delta = st.flipDelta(i);
                if (delta >= thresh)
                    continue;
                if (anneal::metropolisAccept(refs[l], beta * delta))
                    st.flip(i);
            }
        }
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(packed.laneSpins(l), walkers[l].spins()) << l;
        EXPECT_EQ(packed.flips(l), walkers[l].flips()) << l;
        const auto deltas = packed.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_EQ(deltas[i], walkers[l].flipDelta(i)) << l;
        // And the lane streams consumed exactly the same draws.
        EXPECT_EQ(lanes.next(l), refs[l].next()) << l;
    }
}

/** Degree-6 model with h and J in steps of 0.5: every flip delta is
 *  a whole number, so zero and tied deltas are common. */
ising::IsingModel
halfStepModel(uint64_t seed, size_t n)
{
    Rng rng(seed);
    ising::IsingModel m(n);
    for (uint32_t i = 0; i < n; ++i)
        m.addLinear(i, 0.5 * (static_cast<double>(rng.below(5)) - 2));
    for (uint32_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < 3; ++k) {
            uint32_t j = static_cast<uint32_t>(rng.below(n));
            if (i != j)
                m.addQuadratic(i, j, rng.below(2) ? 0.5 : -1.0);
        }
    }
    return m;
}

// Drives @p engine against the scalar engine from lanes 0..live-1 of
// @p m over a geometric schedule spanning hot (dense masks, vector
// draw path) through cold (sparse masks, scalar fallbacks), asserting
// bitwise identity of drew masks, spins, flip counters, delta planes
// and RNG streams, and that the lanes never reset stay at +inf.
void
expectEngineMatchesScalarOn(uint64_t (*engine)(ising::PackedState &,
                                               anneal::LaneRngs &,
                                               double, double),
                            const ising::IsingModel &m, uint64_t seed,
                            uint32_t live)
{
    ising::CompiledModel k(m);
    ising::PackedState a(k), b(k);
    anneal::LaneRngs la, lb;
    for (uint32_t l = 0; l < live; ++l) {
        Rng r = Rng::streamAt(seed, l);
        ising::SpinVector spins = randomSpins(r, m.numVars());
        a.resetLane(l, spins);
        b.resetLane(l, spins);
        la.set(l, r);
        lb.set(l, r);
    }
    double beta = 0.1;
    for (int s = 0; s < 48; ++s, beta *= 1.2) {
        const double thresh = anneal::kMaxExpArg / beta;
        const uint64_t drew_a =
            anneal::packedSweepScalar(a, la, beta, thresh);
        const uint64_t drew_b = engine(b, lb, beta, thresh);
        ASSERT_EQ(drew_a, drew_b) << "sweep " << s;
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (uint32_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(a.laneSpins(l), b.laneSpins(l)) << l;
        ASSERT_EQ(a.flips(l), b.flips(l)) << l;
        const auto da = a.laneDeltas(l), db = b.laneDeltas(l);
        for (uint32_t i = 0; i < m.numVars(); ++i) {
            ASSERT_EQ(std::memcmp(&da[i], &db[i], sizeof(double)), 0)
                << "lane " << l << " var " << i;
            if (l >= live) {
                ASSERT_EQ(db[i], inf) << "lane " << l << " var " << i;
            }
        }
        ASSERT_EQ(la.next(l), lb.next(l)) << l;
    }
}

void
expectEngineMatchesScalar(uint64_t (*engine)(ising::PackedState &,
                                             anneal::LaneRngs &,
                                             double, double))
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("random weights, seed " + std::to_string(seed));
        expectEngineMatchesScalarOn(
            engine, randomSparseModel(seed * 101, 64), seed, kLanes);
    }
    {
        // A ragged pass: lanes 37..63 stay inactive at +inf.
        SCOPED_TRACE("ragged, 37 live lanes");
        expectEngineMatchesScalarOn(engine, randomSparseModel(404, 64), 4,
                                    37);
    }
    {
        // Zero deltas (x = 0 always accepts) and ties between lanes.
        SCOPED_TRACE("half-step weights");
        expectEngineMatchesScalarOn(engine, halfStepModel(505, 64), 5,
                                    kLanes);
    }
}

TEST(PackedSweep, Avx2EngineMatchesScalarEngineBitwise)
{
    if (!anneal::packedSweepAvx2Compiled() || !util::avx2Supported())
        GTEST_SKIP() << "AVX2 engine not compiled in or unsupported";
    expectEngineMatchesScalar(&anneal::packedSweepAvx2);
}

TEST(PackedSweep, Avx512EngineMatchesScalarEngineBitwise)
{
    if (!anneal::packedSweepAvx512Compiled() ||
        !util::avx512Supported())
        GTEST_SKIP() << "AVX-512 engine not compiled in or unsupported";
    expectEngineMatchesScalar(&anneal::packedSweepAvx512);
}

TEST(PackedSweep, SelectedEngineIsCoherent)
{
    const bool avx512 = anneal::packedSweepAvx512Compiled() &&
                        util::avx512Supported();
    const bool avx2 = anneal::packedSweepAvx2Compiled() &&
                      util::avx2Supported();
    EXPECT_STREQ(anneal::packedSweepEngineName(),
                 avx512 ? "avx512" : (avx2 ? "avx2" : "scalar"));
    EXPECT_NE(anneal::selectPackedSweep(), nullptr);
}

// ------------------------------------------------- LocalFieldState::adopt

TEST(LocalFieldState, AdoptTakesSnapshotVerbatim)
{
    ising::IsingModel m = randomSparseModel(15, 24);
    ising::CompiledModel k(m);
    Rng rng(41);
    ising::SpinVector spins = randomSpins(rng, m.numVars());
    ising::LocalFieldState ref(k);
    ref.reset(spins);
    for (int i = 0; i < 10; ++i)
        ref.flip(static_cast<uint32_t>(rng.below(m.numVars())));

    std::vector<double> deltas;
    for (uint32_t i = 0; i < m.numVars(); ++i)
        deltas.push_back(ref.flipDelta(i));
    ising::LocalFieldState adopted(k);
    adopted.adopt(ref.spins(), deltas, ref.flips());

    EXPECT_EQ(adopted.spins(), ref.spins());
    EXPECT_EQ(adopted.flips(), ref.flips());
    EXPECT_EQ(adopted.energy(), ref.energy()); // bitwise
    for (uint32_t i = 0; i < m.numVars(); ++i)
        EXPECT_EQ(adopted.flipDelta(i), ref.flipDelta(i)) << i;
}

} // namespace
