/**
 * @file
 * Unit tests for the util substrate: strings, RNG, simplex LP, maxflow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "qac/util/hash.h"
#include "qac/util/logging.h"
#include "qac/util/maxflow.h"
#include "qac/util/rng.h"
#include "qac/util/simplex.h"
#include "qac/util/strings.h"

namespace qac {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields)
{
    auto v = split("a,,b,", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
    EXPECT_EQ(v[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty)
{
    auto v = splitWhitespace("  a\t b\n  c  ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_FALSE(endsWith("ar", "bar"));
}

TEST(Strings, CountLines)
{
    EXPECT_EQ(countLines(""), 0u);
    EXPECT_EQ(countLines("one"), 1u);
    EXPECT_EQ(countLines("one\n"), 1u);
    EXPECT_EQ(countLines("one\ntwo"), 2u);
    EXPECT_EQ(countLines("one\ntwo\n"), 2u);
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(toLower("MiXeD123"), "mixed123");
}

TEST(Strings, AppendJsonEscaped)
{
    std::string out = "prefix:";
    appendJsonEscaped(out, "q\"b\\n\nt\tc\x01u\xc3\xa9");
    EXPECT_EQ(out, "prefix:q\\\"b\\\\n\\nt\\tc\\u0001u\xc3\xa9");
}

// ---------------------------------------------------------------- logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom %d", 42), FatalError);
    try {
        fatal("value = %d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value = 7");
    }
}

TEST(Logging, Format)
{
    EXPECT_EQ(format("%s-%03d", "x", 5), "x-005");
}

TEST(Logging, SetLogStreamCapturesOutput)
{
    std::ostringstream captured;
    std::ostream *prev = setLogStream(&captured);
    EXPECT_EQ(prev, nullptr); // default sink is stderr
    warn("watch out %d", 7);
    inform("fyi %s", "ok");
    setLogStream(nullptr);
    EXPECT_EQ(captured.str(), "warn: watch out 7\ninfo: fyi ok\n");
}

TEST(Logging, VerbosityZeroSuppressesWarnAndInform)
{
    std::ostringstream captured;
    setLogStream(&captured);
    int prev = setVerbosity(0);
    warn("hidden");
    inform("hidden too");
    setVerbosity(prev);
    setLogStream(nullptr);
    EXPECT_TRUE(captured.str().empty());
}

TEST(Logging, ConcurrentWarnsDoNotInterleave)
{
    std::ostringstream captured;
    setLogStream(&captured);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 200; ++i)
                warn("thread %d message %d", t, i);
        });
    }
    for (auto &th : threads)
        th.join();
    setLogStream(nullptr);
    // Every line must be a complete "warn: thread T message N".
    std::istringstream in(captured.str());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.rfind("warn: thread ", 0), 0u) << line;
    }
    EXPECT_EQ(lines, 4u * 200u);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBounds)
{
    Rng r(2);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // every residue hit
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo |= (v == -2);
        hi |= (v == 2);
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, SpinIsBothSigns)
{
    Rng r(4);
    int plus = 0;
    for (int i = 0; i < 1000; ++i)
        if (r.spin() > 0)
            ++plus;
    EXPECT_GT(plus, 400);
    EXPECT_LT(plus, 600);
}

TEST(Rng, ShufflePermutes)
{
    Rng r(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(Rng, ForkIndependence)
{
    Rng a(6);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

// The embedder skips the noise draws of far root candidates with
// discard(n): it must land exactly where n draws would.
TEST(Rng, DiscardMatchesThatManyDraws)
{
    for (uint64_t n : {0u, 1u, 63u, 4096u}) {
        Rng stepped = Rng::streamAt(7, n);
        Rng skipped = stepped;
        for (uint64_t i = 0; i < n; ++i)
            stepped.next();
        skipped.discard(n);
        EXPECT_EQ(skipped.state(), stepped.state()) << n;
        EXPECT_EQ(skipped.next(), stepped.next()) << n;
    }
}

// ---------------------------------------------------------------- simplex

TEST(Simplex, SimpleMaximization)
{
    // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> optimum at (1.6, 1.2).
    std::vector<LpConstraint> cons = {
        {{1, 2}, Relation::LE, 4},
        {{3, 1}, Relation::LE, 6},
    };
    auto r = solveLp(2, {1, 1}, cons);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 2.8, 1e-9);
    EXPECT_NEAR(r.x[0], 1.6, 1e-9);
    EXPECT_NEAR(r.x[1], 1.2, 1e-9);
}

TEST(Simplex, EqualityConstraint)
{
    // max x s.t. x + y = 3, x <= 2.
    std::vector<LpConstraint> cons = {
        {{1, 1}, Relation::EQ, 3},
        {{1, 0}, Relation::LE, 2},
    };
    auto r = solveLp(2, {1, 0}, cons);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.x[0], 2.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraint)
{
    // max -x s.t. x >= 5 -> x = 5.
    std::vector<LpConstraint> cons = {{{1}, Relation::GE, 5}};
    auto r = solveLp(1, {-1}, cons);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(Simplex, Infeasible)
{
    std::vector<LpConstraint> cons = {
        {{1}, Relation::LE, 1},
        {{1}, Relation::GE, 2},
    };
    auto r = solveLp(1, {1}, cons);
    EXPECT_EQ(r.status, LpStatus::Infeasible);
}

TEST(Simplex, Unbounded)
{
    std::vector<LpConstraint> cons = {{{1}, Relation::GE, 0}};
    auto r = solveLp(1, {1}, cons);
    EXPECT_EQ(r.status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // max x subject to -x <= -2 (i.e. x >= 2), x <= 5.
    std::vector<LpConstraint> cons = {
        {{-1}, Relation::LE, -2},
        {{1}, Relation::LE, 5},
    };
    auto r = solveLp(1, {1}, cons);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates)
{
    std::vector<LpConstraint> cons = {
        {{1, 1}, Relation::LE, 2},
        {{1, 1}, Relation::LE, 2},
        {{2, 2}, Relation::LE, 4},
        {{1, 0}, Relation::LE, 1},
        {{0, 1}, Relation::LE, 1},
    };
    auto r = solveLp(2, {1, 1}, cons);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

// ---------------------------------------------------------------- maxflow

TEST(MaxFlow, SingleEdge)
{
    MaxFlow mf(2);
    mf.addEdge(0, 1, 3.5);
    EXPECT_DOUBLE_EQ(mf.solve(0, 1), 3.5);
}

TEST(MaxFlow, ClassicDiamond)
{
    MaxFlow mf(4);
    mf.addEdge(0, 1, 3);
    mf.addEdge(0, 2, 2);
    mf.addEdge(1, 3, 2);
    mf.addEdge(2, 3, 3);
    mf.addEdge(1, 2, 1);
    EXPECT_DOUBLE_EQ(mf.solve(0, 3), 5.0);
}

TEST(MaxFlow, MinCutSide)
{
    MaxFlow mf(4);
    mf.addEdge(0, 1, 10);
    mf.addEdge(1, 2, 1); // bottleneck
    mf.addEdge(2, 3, 10);
    EXPECT_DOUBLE_EQ(mf.solve(0, 3), 1.0);
    auto side = mf.reachableFrom(0);
    EXPECT_TRUE(side[0]);
    EXPECT_TRUE(side[1]);
    EXPECT_FALSE(side[2]);
    EXPECT_FALSE(side[3]);
}

TEST(MaxFlow, DisconnectedIsZero)
{
    MaxFlow mf(3);
    mf.addEdge(0, 1, 5);
    EXPECT_DOUBLE_EQ(mf.solve(0, 2), 0.0);
}

// ---------------------------------------------------------------- hash

using util::fnv1a64;
using util::Hasher;
using util::hexDigest;

TEST(Hash, Fnv1aKnownVectors)
{
    // Reference digests from the FNV specification.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
    const char raw[] = {'a'};
    EXPECT_EQ(fnv1a64(raw, 1), fnv1a64("a"));
}

TEST(Hash, HexDigestFormat)
{
    EXPECT_EQ(hexDigest(0), "0000000000000000");
    EXPECT_EQ(hexDigest(0xcbf29ce484222325ULL), "cbf29ce484222325");
    EXPECT_EQ(hexDigest(UINT64_MAX), "ffffffffffffffff");
}

TEST(Hash, HasherIsCanonicalAndPrefixFree)
{
    // Chained helpers match the raw byte-stream definition.
    Hasher a;
    a.u32(0x01020304u);
    const char le[] = {4, 3, 2, 1};
    EXPECT_EQ(a.digest(), fnv1a64(le, 4));

    // Length-prefixed strings: ("ab","c") never collides with
    // ("a","bc").
    Hasher h1, h2;
    h1.str("ab").str("c");
    h2.str("a").str("bc");
    EXPECT_NE(h1.digest(), h2.digest());

    // Same inputs, same digest; any change perturbs it.
    Hasher h3, h4, h5;
    h3.u64(7).f64(1.5).str("x");
    h4.u64(7).f64(1.5).str("x");
    h5.u64(7).f64(1.5).str("y");
    EXPECT_EQ(h3.digest(), h4.digest());
    EXPECT_NE(h3.digest(), h5.digest());
}

} // namespace
} // namespace qac
