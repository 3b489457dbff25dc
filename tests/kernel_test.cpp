/**
 * @file
 * Parity and determinism contract of the CSR Ising kernel
 * (ising::CompiledModel + LocalFieldState, DESIGN.md §9): the compiled
 * view must agree with the reference IsingModel arithmetic on energies,
 * flip deltas, and whole flip trajectories, the incremental fields must
 * stay consistent under long random walks, and every sampler ported
 * onto the kernel must keep the threads-1-vs-8 bitwise-equality
 * contract from DESIGN.md §8.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qac/anneal/descent.h"
#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/ising/compiled.h"
#include "qac/ising/model.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/hash.h"
#include "qac/util/rng.h"

namespace {

using namespace qac;

ising::IsingModel
randomSparseModel(uint64_t seed, size_t n, size_t degree = 4)
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

// ------------------------------------------------------- CSR structure

TEST(CompiledModel, CsrLayoutMatchesModel)
{
    ising::IsingModel m = randomSparseModel(11, 30);
    ising::CompiledModel k(m);

    ASSERT_EQ(k.numVars(), m.numVars());
    ASSERT_EQ(k.rowOffsets().size(), m.numVars() + 1);
    EXPECT_EQ(k.neighbors().size(), 2 * k.numEdges());
    EXPECT_EQ(k.weights().size(), k.neighbors().size());

    for (uint32_t i = 0; i < k.numVars(); ++i) {
        EXPECT_EQ(k.linear(i), m.linear(i)) << i; // bitwise copy
        const uint32_t lo = k.rowOffsets()[i];
        const uint32_t hi = k.rowOffsets()[i + 1];
        EXPECT_EQ(k.degree(i), hi - lo);
        EXPECT_LE(k.degree(i), k.maxDegree());
        for (uint32_t p = lo; p < hi; ++p) {
            const uint32_t j = k.neighbors()[p];
            // Rows sorted, no self-loops, weights match J_ij exactly.
            if (p > lo) {
                EXPECT_LT(k.neighbors()[p - 1], j);
            }
            EXPECT_NE(j, i);
            EXPECT_EQ(k.weights()[p], m.quadratic(i, j));
        }
    }
    // Every nonzero model term appears in the CSR view.
    for (const auto &t : m.sortedQuadraticTerms())
        EXPECT_EQ(t.value, m.quadratic(t.i, t.j));
}

TEST(CompiledModel, DeterministicAcrossEqualModels)
{
    // Two structurally equal models (different insertion orders) must
    // compile to bit-identical CSR arrays.
    ising::IsingModel a(5), b(5);
    a.addQuadratic(0, 1, 0.5);
    a.addQuadratic(3, 2, -1.0);
    a.addLinear(4, 0.25);
    b.addLinear(4, 0.25);
    b.addQuadratic(2, 3, -1.0);
    b.addQuadratic(1, 0, 0.5);
    ising::CompiledModel ka(a), kb(b);
    EXPECT_EQ(ka.rowOffsets(), kb.rowOffsets());
    EXPECT_EQ(ka.neighbors(), kb.neighbors());
    EXPECT_EQ(ka.weights(), kb.weights());
}

TEST(CompiledModel, EmptyAndCouplingFreeModels)
{
    ising::IsingModel empty;
    ising::CompiledModel ke(empty);
    EXPECT_EQ(ke.numVars(), 0u);
    EXPECT_EQ(ke.numEdges(), 0u);
    EXPECT_EQ(ke.energy({}), 0.0);

    ising::IsingModel fields(3);
    fields.addLinear(0, 1.0);
    fields.addLinear(2, -2.0);
    ising::CompiledModel kf(fields);
    EXPECT_EQ(kf.numEdges(), 0u);
    ising::SpinVector s{-1, 1, 1};
    EXPECT_EQ(kf.energy(s), fields.energy(s)); // one term each: bitwise
    EXPECT_EQ(kf.flipDelta(s, 0), fields.flipDelta(s, 0));
}

// ------------------------------------------------- energy/delta parity

TEST(CompiledModel, EnergyAndDeltaMatchReference)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        ising::IsingModel m = randomSparseModel(seed, 48, 6);
        ising::CompiledModel k(m);
        Rng rng(seed * 977);
        for (int trial = 0; trial < 20; ++trial) {
            ising::SpinVector spins = randomSpins(rng, m.numVars());
            EXPECT_NEAR(k.energy(spins), m.energy(spins), 1e-9);
            for (uint32_t i = 0; i < m.numVars(); ++i) {
                EXPECT_NEAR(k.flipDelta(spins, i),
                            m.flipDelta(spins, i), 1e-9);
                // delta_i = -2 s_i f_i  =>  f_i = delta_i / (-2 s_i)
                EXPECT_NEAR(k.localField(spins, i),
                            m.flipDelta(spins, i) /
                                (-2.0 * spins[i]),
                            1e-9);
            }
        }
    }
}

TEST(LocalFieldState, ResetMatchesFreshComputation)
{
    ising::IsingModel m = randomSparseModel(7, 40, 6);
    ising::CompiledModel k(m);
    Rng rng(99);
    ising::SpinVector spins = randomSpins(rng, m.numVars());

    ising::LocalFieldState state(k);
    state.reset(spins);
    EXPECT_EQ(state.spins(), spins);
    EXPECT_NEAR(state.energy(), m.energy(spins), 1e-9);
    for (uint32_t i = 0; i < m.numVars(); ++i) {
        EXPECT_EQ(state.field(i), k.localField(spins, i)) << i;
        EXPECT_EQ(state.flipDelta(i), k.flipDelta(spins, i)) << i;
    }
}

TEST(LocalFieldState, IncrementalWalkStaysConsistent)
{
    // A long random flip walk: tracked spins must match a reference
    // trajectory exactly, and the tracked fields/energy must agree
    // with fresh recomputation throughout.
    for (uint64_t seed : {21u, 22u, 23u}) {
        ising::IsingModel m = randomSparseModel(seed, 32, 8);
        ising::CompiledModel k(m);
        Rng rng(seed);
        ising::SpinVector reference = randomSpins(rng, m.numVars());
        ising::LocalFieldState state(k);
        state.reset(reference);

        for (int step = 0; step < 2000; ++step) {
            uint32_t i =
                static_cast<uint32_t>(rng.below(m.numVars()));
            double fresh_delta = m.flipDelta(reference, i);
            EXPECT_NEAR(state.flipDelta(i), fresh_delta, 1e-9);
            double before = state.energy();
            state.flip(i);
            reference[i] = static_cast<ising::Spin>(-reference[i]);
            EXPECT_EQ(state.spins(), reference);
            EXPECT_NEAR(state.energy() - before, fresh_delta, 1e-9);
        }
        EXPECT_EQ(state.flips(), 2000u);
        // After the walk, fields and energy still match from-scratch.
        EXPECT_NEAR(state.energy(), m.energy(reference), 1e-9);
        for (uint32_t i = 0; i < m.numVars(); ++i)
            EXPECT_NEAR(state.field(i),
                        k.localField(reference, i), 1e-9);
    }
}

TEST(LocalFieldState, KernelDescentMatchesReferenceDescent)
{
    // Both descents use the same scan order and thresholds, so they
    // must land on the same local minimum from the same start.
    for (uint64_t seed : {31u, 32u, 33u, 34u}) {
        ising::IsingModel m = randomSparseModel(seed, 36, 6);
        ising::CompiledModel k(m);
        Rng rng(seed);
        ising::SpinVector start = randomSpins(rng, m.numVars());

        ising::SpinVector ref = start;
        double ref_gain = anneal::greedyDescent(m, ref);

        ising::LocalFieldState state(k);
        state.reset(start);
        double kern_gain = anneal::greedyDescent(state);

        EXPECT_EQ(state.spins(), ref);
        EXPECT_NEAR(kern_gain, ref_gain, 1e-9);
        EXPECT_NEAR(state.energy(), m.energy(ref), 1e-9);
    }
}

// ------------------------------------------- sampler-level invariants

void
expectIdentical(const anneal::SampleSet &a, const anneal::SampleSet &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.totalReads(), b.totalReads());
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &sa = a.samples()[i];
        const auto &sb = b.samples()[i];
        EXPECT_EQ(sa.spins, sb.spins) << "sample " << i;
        EXPECT_EQ(sa.energy, sb.energy) << "sample " << i; // bitwise
        EXPECT_EQ(sa.num_occurrences, sb.num_occurrences)
            << "sample " << i;
    }
}

class KernelSampler : public ::testing::TestWithParam<const char *>
{
  protected:
    anneal::SamplerOpts
    opts() const
    {
        anneal::SamplerOpts o;
        o.common.num_reads = 40;
        o.common.seed = 9;
        o.sweeps = 32;
        o.extra["qbsolv.subproblem_size"] = 10;
        o.extra["qbsolv.restarts"] = 5;
        o.extra["qbsolv.outer_iterations"] = 3;
        o.extra["sqa.trotter_slices"] = 4;
        if (std::string(GetParam()) == "chainflip")
            o.chains = {{0, 1, 2}, {8, 9}, {20, 21, 22}};
        return o;
    }
};

TEST_P(KernelSampler, ReportedEnergiesAreExact)
{
    // The hot loops run on incrementally tracked energies; the
    // reported per-sample energy must still be the exact H(sigma) of
    // the reported spins.
    ising::IsingModel m = randomSparseModel(41, 30, 6);
    auto sampler = anneal::makeSampler(GetParam(), opts());
    ASSERT_NE(sampler, nullptr);
    anneal::SampleSet set = sampler->sample(m);
    ASSERT_FALSE(set.empty());
    for (const auto &s : set.samples())
        EXPECT_NEAR(s.energy, m.energy(s.spins), 1e-9);
}

TEST_P(KernelSampler, ThreadCountBitwiseInvariantAfterPort)
{
    ising::IsingModel m = randomSparseModel(43, 30, 6);

    auto o = opts();
    o.common.threads = 1;
    auto one = anneal::makeSampler(GetParam(), o);
    ASSERT_NE(one, nullptr);
    anneal::SampleSet s1 = one->sample(m);

    o.common.threads = 8;
    auto eight = anneal::makeSampler(GetParam(), o);
    ASSERT_NE(eight, nullptr);
    anneal::SampleSet s8 = eight->sample(m);

    EXPECT_FALSE(s1.empty());
    expectIdentical(s1, s8);
}

INSTANTIATE_TEST_SUITE_P(AllKernelSamplers, KernelSampler,
                         ::testing::Values("sa", "sqa", "chainflip",
                                           "descent", "qbsolv"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// --------------------------------------------------- SA read goldens
//
// SA runs the scalar per-read kernel below kPackedMinReads reads and
// the 64-lane multi-spin kernel (DESIGN.md §13) from there on.  Both
// must be invisible in results: tests/golden/sa_reads.txt holds
// SampleSet and telemetry JSONL digests recorded with the scalar path
// forced, on both sides of the cut and with ragged lane tails, and
// every row must match at one thread and at eight.

anneal::SampleSet
runSa(const ising::IsingModel &m, uint32_t reads, uint32_t threads)
{
    anneal::SamplerOpts o;
    o.common.num_reads = reads;
    o.common.seed = 9;
    o.common.threads = threads;
    o.sweeps = 48;
    auto sampler = anneal::makeSampler("sa", o);
    return sampler->sample(m);
}

std::string
sampleSetDigest(const anneal::SampleSet &set)
{
    util::Hasher h;
    h.u64(set.totalReads());
    h.u64(set.samples().size());
    for (const auto &s : set.samples()) {
        h.u64(s.spins.size());
        for (ising::Spin v : s.spins)
            h.u8(static_cast<uint8_t>(v));
        h.f64(s.energy);
        h.u32(s.num_occurrences);
    }
    return util::hexDigest(h.digest());
}

std::string
telemetryDigest(const ising::IsingModel &m, uint32_t reads,
                uint32_t threads)
{
    using telemetry::Collector;
    Collector::global().clear();
    telemetry::Config cfg;
    cfg.stride = 4;
    cfg.capacity = 16;
    Collector::global().configure(cfg);
    Collector::global().setEnabled(true);
    runSa(m, reads, threads);
    const std::string jsonl = Collector::global().toJsonl();
    Collector::global().setEnabled(false);
    Collector::global().clear();
    util::Hasher h;
    h.str(jsonl);
    return util::hexDigest(h.digest());
}

class SaReadsGolden : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(SaReadsGolden, MatchesScalarPathDigests)
{
    const uint32_t threads = GetParam();
    const ising::IsingModel samples_model = randomSparseModel(67, 36, 6);
    const ising::IsingModel telemetry_model =
        randomSparseModel(73, 30, 6);
    std::ifstream in(std::string(QAC_SOURCE_DIR) +
                     "/tests/golden/sa_reads.txt");
    ASSERT_TRUE(in);
    size_t checked = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string kind, digest;
        uint32_t reads = 0;
        row >> kind >> reads >> digest;
        ASSERT_TRUE(row) << line;
        SCOPED_TRACE(line);
        if (kind == "samples") {
            const anneal::SampleSet set =
                runSa(samples_model, reads, threads);
            EXPECT_EQ(set.totalReads(), reads);
            EXPECT_EQ(sampleSetDigest(set), digest);
        } else {
            ASSERT_EQ(kind, "telemetry");
            EXPECT_EQ(telemetryDigest(telemetry_model, reads, threads),
                      digest);
        }
        ++checked;
    }
    EXPECT_EQ(checked, 8u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SaReadsGolden,
                         ::testing::Values(1u, 8u));

TEST(PackedLaneParity, MaskedLaneEnergiesAreExact)
{
    // Ragged pass: every reported energy must still be the exact
    // H(sigma) of the reported spins — inactive lanes must not bleed
    // into live lanes' planes.
    ising::IsingModel m = randomSparseModel(71, 32, 6);
    ising::CompiledModel kernel(m);
    anneal::SampleSet packed = runSa(m, 13, 1);
    ASSERT_EQ(packed.totalReads(), 13u);
    for (const auto &s : packed.samples()) {
        // Bitwise against the kernel's own fold (the sampler's
        // reporting path), NEAR against the model's canonical fold.
        EXPECT_EQ(s.energy, kernel.energy(s.spins));
        EXPECT_NEAR(s.energy, m.energy(s.spins), 1e-9);
    }
}

// ------------------------------------------ thread-safe adjacency

TEST(AdjacencyThreadSafety, ConcurrentFirstUse)
{
    // The lazy adjacency build is guarded by std::call_once: many
    // threads racing the *first* read must all observe one complete
    // structure (verify_tsan.sh checks this under TSan too).
    ising::IsingModel m = randomSparseModel(53, 64, 6);
    const size_t expect_rows = m.numVars();

    std::vector<std::thread> threads;
    std::vector<size_t> rows(8, 0);
    for (size_t t = 0; t < rows.size(); ++t)
        threads.emplace_back([&, t] {
            rows[t] = m.adjacency().size();
        });
    for (auto &th : threads)
        th.join();
    for (size_t r : rows)
        EXPECT_EQ(r, expect_rows);
}

TEST(AdjacencyThreadSafety, CopyAndMoveKeepModelsUsable)
{
    ising::IsingModel m = randomSparseModel(59, 12, 4);
    (void)m.adjacency(); // built

    ising::IsingModel copy = m;
    EXPECT_EQ(copy, m);
    EXPECT_EQ(copy.adjacency().size(), m.numVars());

    ising::IsingModel moved = std::move(copy);
    EXPECT_EQ(moved, m);
    EXPECT_EQ(moved.adjacency().size(), m.numVars());

    // Mutation after a build invalidates and rebuilds.
    ising::IsingModel grown = m;
    grown.addQuadratic(0, 11, 0.5);
    const auto &adj = grown.adjacency();
    bool found = false;
    for (const auto &[j, w] : adj[0])
        if (j == 11 && w == 0.5)
            found = true;
    EXPECT_TRUE(found);
}

} // namespace
