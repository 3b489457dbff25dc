/**
 * @file
 * The determinism contract of the parallel execution layer: for a
 * fixed seed every sampler and the exact enumerator must produce
 * bitwise-identical results regardless of thread count.  Also
 * unit-tests the exec primitives (parallelFor, TaskGroup),
 * counter-based RNG streams, and the SampleSet merge/finalize algebra
 * the reduction relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "qac/anneal/descent.h"
#include "qac/anneal/exact.h"
#include "qac/anneal/sampler.h"
#include "qac/anneal/sampleset.h"
#include "qac/exec/exec.h"
#include "qac/ising/model.h"
#include "qac/util/rng.h"

namespace {

using namespace qac;

// ---------------------------------------------------------------- exec

TEST(Exec, ResolveThreads)
{
    EXPECT_GE(exec::resolveThreads(0), 1u);
    EXPECT_EQ(exec::resolveThreads(1), 1u);
    EXPECT_EQ(exec::resolveThreads(8), 8u);
}

TEST(Exec, ParallelForCoversEveryIndexOnce)
{
    for (uint32_t threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> hits(1000);
        exec::parallelFor(hits.size(), threads,
                          [&](size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Exec, ParallelForZeroAndOne)
{
    int runs = 0;
    exec::parallelFor(0, 8, [&](size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    exec::parallelFor(1, 8, [&](size_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

TEST(Exec, ParallelForNestedDegradesInline)
{
    std::vector<std::atomic<int>> hits(64);
    exec::parallelFor(8, 8, [&](size_t outer) {
        exec::parallelFor(8, 8, [&](size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Exec, ParallelForRethrowsLowestIndex)
{
    for (uint32_t threads : {1u, 8u}) {
        std::atomic<int> ran{0};
        try {
            exec::parallelFor(100, threads, [&](size_t i) {
                ran.fetch_add(1);
                if (i == 13 || i == 77)
                    throw std::runtime_error(
                        "fault at " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "fault at 13");
        }
        // Every index still ran (sequential all-indices semantics).
        EXPECT_EQ(ran.load(), 100);
    }
}

TEST(Exec, TaskGroupJoinsAndRethrowsEarliest)
{
    exec::TaskGroup group;
    std::atomic<int> done{0};
    for (int t = 0; t < 16; ++t)
        group.spawn([&] { done.fetch_add(1); });
    group.wait();
    EXPECT_EQ(done.load(), 16);

    exec::TaskGroup failing;
    failing.spawn([] { throw std::runtime_error("first"); });
    failing.spawn([] { throw std::runtime_error("second"); });
    try {
        failing.wait();
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

// ----------------------------------------------------------------- rng

TEST(RngStream, PureFunctionOfSeedAndIndex)
{
    Rng a = Rng::streamAt(42, 7);
    Rng b = Rng::streamAt(42, 7);
    for (int k = 0; k < 64; ++k)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, DistinctIndicesAndSeedsDiverge)
{
    Rng a = Rng::streamAt(42, 0);
    Rng b = Rng::streamAt(42, 1);
    Rng c = Rng::streamAt(43, 0);
    // First draws almost surely differ between streams.
    EXPECT_NE(a.next(), b.next());
    Rng a2 = Rng::streamAt(42, 0);
    EXPECT_NE(a2.next(), c.next());
}

TEST(RngStream, OrderIndependent)
{
    // Drawing stream 5 before stream 2 must not change either —
    // unlike fork(), which advances shared state.
    Rng five_first = Rng::streamAt(9, 5);
    uint64_t v5 = five_first.next();
    Rng two = Rng::streamAt(9, 2);
    uint64_t v2 = two.next();

    Rng two_first = Rng::streamAt(9, 2);
    EXPECT_EQ(two_first.next(), v2);
    Rng five = Rng::streamAt(9, 5);
    EXPECT_EQ(five.next(), v5);
}

// ----------------------------------------------------- sampleset algebra

anneal::SampleSet
setOf(std::initializer_list<std::pair<std::vector<int>, double>> items)
{
    anneal::SampleSet s;
    for (const auto &[raw, e] : items) {
        ising::SpinVector spins(raw.size());
        for (size_t i = 0; i < raw.size(); ++i)
            spins[i] = static_cast<ising::Spin>(raw[i]);
        s.add(spins, e);
    }
    return s;
}

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

TEST(SampleSetAlgebra, MergeAggregatesDuplicates)
{
    auto a = setOf({{{1, -1}, 2.0}, {{1, 1}, 0.5}});
    auto b = setOf({{{1, -1}, 2.0}, {{-1, -1}, 1.0}});
    a.merge(std::move(b));
    a.finalize();
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.totalReads(), 4u);
    EXPECT_DOUBLE_EQ(a.best().energy, 0.5);
    for (const auto &s : a.samples())
        if (s.energy == 2.0)
            EXPECT_EQ(s.num_occurrences, 2u);
}

TEST(SampleSetAlgebra, MergeAssociativeAndOrderInvariant)
{
    auto make = [] {
        return std::array<anneal::SampleSet, 3>{
            setOf({{{1, -1, 1}, 1.5}, {{1, 1, 1}, -2.0}}),
            setOf({{{1, -1, 1}, 1.5}, {{-1, 1, -1}, 0.0}}),
            setOf({{{-1, -1, -1}, -2.0}, {{1, 1, 1}, -2.0}}),
        };
    };

    // (a + b) + c
    auto abc = make();
    abc[0].merge(std::move(abc[1]));
    abc[0].merge(std::move(abc[2]));
    abc[0].finalize();

    // a + (b + c)
    auto bca = make();
    bca[1].merge(std::move(bca[2]));
    bca[0].merge(std::move(bca[1]));
    bca[0].finalize();

    // c + a + b (different order entirely)
    auto cab = make();
    cab[2].merge(std::move(cab[0]));
    cab[2].merge(std::move(cab[1]));
    cab[2].finalize();

    expectIdentical(abc[0], bca[0]);
    expectIdentical(abc[0], cab[2]);
}

TEST(SampleSetAlgebra, FinalizeIdempotentAndCanonical)
{
    auto a = setOf(
        {{{1, 1}, 0.0}, {{-1, -1}, 0.0}, {{1, -1}, -1.0}});
    a.finalize();
    // Equal energies tie-break lexicographically by spins.
    EXPECT_EQ(a.samples()[0].energy, -1.0);
    EXPECT_LT(a.samples()[1].spins, a.samples()[2].spins);
    auto before = a.samples();
    a.finalize(); // idempotent
    for (size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(a.samples()[i].spins, before[i].spins);
}

// ------------------------------------------- sampler determinism

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

class SamplerDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(SamplerDeterminism, ThreadCountInvariant)
{
    const std::string name = GetParam();
    ising::IsingModel m = randomSparseModel(17, 40);

    anneal::SamplerOpts opts;
    opts.common.num_reads = 60;
    opts.common.seed = 5;
    opts.sweeps = 48;
    opts.extra["qbsolv.subproblem_size"] = 12;
    opts.extra["qbsolv.restarts"] = 6;
    opts.extra["qbsolv.outer_iterations"] = 4;
    opts.extra["sqa.trotter_slices"] = 4;
    if (name == "chainflip")
        opts.chains = {{0, 1, 2}, {10, 11}, {20, 21, 22, 23}};

    opts.common.threads = 1;
    auto one = anneal::makeSampler(name, opts);
    ASSERT_NE(one, nullptr);
    anneal::SampleSet s1 = one->sample(m);

    opts.common.threads = 8;
    auto eight = anneal::makeSampler(name, opts);
    ASSERT_NE(eight, nullptr);
    anneal::SampleSet s8 = eight->sample(m);

    EXPECT_FALSE(s1.empty());
    expectIdentical(s1, s8);
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, SamplerDeterminism,
                         ::testing::Values("sa", "sqa", "chainflip",
                                           "descent", "qbsolv"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(SamplerFactory, NamesAndUnknown)
{
    auto names = anneal::samplerNames();
    for (const char *expect : {"sa", "sqa", "exact", "qbsolv",
                               "descent", "chainflip"})
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
    // Unknown names fail typed, not with nullptr or a process abort.
    EXPECT_FALSE(anneal::hasSampler("no-such-sampler"));
    EXPECT_TRUE(anneal::hasSampler("sa"));
    try {
        anneal::makeSampler("no-such-sampler", {});
        FAIL() << "expected UnknownSolverError";
    } catch (const anneal::UnknownSolverError &e) {
        EXPECT_EQ(e.name(), "no-such-sampler");
        EXPECT_NE(std::string(e.what()).find("sa"),
                  std::string::npos);
    }
    EXPECT_NE(anneal::samplerNamesJoined().find("sa"),
              std::string::npos);
}

TEST(SamplerFactory, RegisterExtension)
{
    anneal::registerSampler(
        "test-descent", [](const anneal::SamplerOpts &o) {
            anneal::DescentSampler::Params p;
            static_cast<anneal::CommonParams &>(p) = o.common;
            return std::make_unique<anneal::DescentSampler>(p);
        });
    auto s = anneal::makeSampler("test-descent", {});
    ASSERT_NE(s, nullptr);
    ising::IsingModel m = randomSparseModel(3, 10);
    EXPECT_FALSE(s->sample(m).empty());
}

// -------------------------------------------------- exact sharding

TEST(ExactParallel, ShardedEnumerationThreadInvariant)
{
    // 18 variables = 2^18 states: several fixed shards.
    ising::IsingModel m = randomSparseModel(23, 18);

    anneal::ExactSolver::Params p1;
    p1.threads = 1;
    auto r1 = anneal::ExactSolver(p1).solve(m);
    anneal::ExactSolver::Params p8;
    p8.threads = 8;
    auto r8 = anneal::ExactSolver(p8).solve(m);

    EXPECT_EQ(r1.min_energy, r8.min_energy); // bitwise
    ASSERT_EQ(r1.ground_states.size(), r8.ground_states.size());
    for (size_t i = 0; i < r1.ground_states.size(); ++i)
        EXPECT_EQ(r1.ground_states[i], r8.ground_states[i]);
    EXPECT_EQ(r1.truncated, r8.truncated);

    // Every reported state really attains the minimum.
    for (const auto &gs : r1.ground_states)
        EXPECT_NEAR(m.energy(gs), r1.min_energy, 1e-6);

    // The sampler view is deterministic too.
    anneal::SampleSet s1 = anneal::ExactSolver(p1).sample(m);
    anneal::SampleSet s8 = anneal::ExactSolver(p8).sample(m);
    expectIdentical(s1, s8);
}

TEST(ExactParallel, MatchesSmallUnshardedCase)
{
    // 8 variables stays single-shard; descent can verify the optimum.
    ising::IsingModel m = randomSparseModel(29, 8);
    auto res = anneal::ExactSolver().solve(m);
    double brute = std::numeric_limits<double>::infinity();
    ising::SpinVector spins(8, -1);
    for (uint32_t mask = 0; mask < 256; ++mask) {
        for (uint32_t b = 0; b < 8; ++b)
            spins[b] = (mask >> b) & 1 ? 1 : -1;
        brute = std::min(brute, m.energy(spins));
    }
    EXPECT_NEAR(res.min_energy, brute, 1e-9);
}

} // namespace
