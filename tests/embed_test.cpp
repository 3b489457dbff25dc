/**
 * @file
 * Tests for minor embedding (Section 4.4): embedding verification, the
 * CMR-style heuristic, physical-model construction, unembedding, and
 * the roof-duality-style variable fixing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "qac/anneal/exact.h"
#include "qac/artifact/qo.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/embed/embed_model.h"
#include "qac/embed/minorminer.h"
#include "qac/embed/roof_duality.h"
#include "qac/stats/registry.h"
#include "qac/util/hash.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::embed {
namespace {

using chimera::HardwareGraph;
using ising::IsingModel;
using ising::SpinVector;

std::vector<std::pair<uint32_t, uint32_t>>
cliqueEdges(uint32_t n)
{
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t a = 0; a < n; ++a)
        for (uint32_t b = a + 1; b < n; ++b)
            edges.push_back({a, b});
    return edges;
}

// ---------------------------------------------------------- verification

TEST(VerifyEmbedding, AcceptsValid)
{
    HardwareGraph hw = chimera::chimeraGraph(2);
    Embedding emb;
    emb.chains = {{0}, {4}}; // cell (0,0): half-0 idx 0 and half-1 idx 0
    EXPECT_TRUE(verifyEmbedding(emb, {{0, 1}}, hw));
}

TEST(VerifyEmbedding, RejectsDefects)
{
    HardwareGraph hw = chimera::chimeraGraph(2);
    std::string err;

    Embedding empty_chain;
    empty_chain.chains = {{0}, {}};
    EXPECT_FALSE(verifyEmbedding(empty_chain, {}, hw, &err));

    Embedding overlap;
    overlap.chains = {{0}, {0}};
    EXPECT_FALSE(verifyEmbedding(overlap, {}, hw, &err));
    EXPECT_NE(err.find("two chains"), std::string::npos);

    Embedding disconnected;
    disconnected.chains = {{0, 1}}; // same partition: no coupler
    EXPECT_FALSE(verifyEmbedding(disconnected, {}, hw, &err));

    Embedding unbacked;
    unbacked.chains = {{0}, {1}}; // no edge between 0 and 1
    EXPECT_FALSE(verifyEmbedding(unbacked, {{0, 1}}, hw, &err));

    HardwareGraph dropped = hw;
    dropped.deactivate(0);
    Embedding inactive;
    inactive.chains = {{0}};
    EXPECT_FALSE(verifyEmbedding(inactive, {}, dropped, &err));
}

// ------------------------------------------------------------- embedder

TEST(FindEmbedding, TriangleUsesFourQubits)
{
    // The Section 4.4 worked example: K3 -> 4 physical qubits.
    HardwareGraph hw = chimera::chimeraGraph(16);
    auto emb = findEmbedding(cliqueEdges(3), 3, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    EXPECT_EQ(emb->totalQubits(), 4u);
}

class CliqueEmbed : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(CliqueEmbed, EmbedsAndVerifies)
{
    uint32_t n = GetParam();
    HardwareGraph hw = chimera::chimeraGraph(16);
    EmbedParams p;
    p.tries = 4;
    auto emb = findEmbedding(cliqueEdges(n), n, hw, p);
    ASSERT_TRUE(emb.has_value()) << "K" << n;
    // findEmbedding verifies internally (panics otherwise); check the
    // shape here.
    EXPECT_EQ(emb->numLogical(), n);
    EXPECT_GE(emb->totalQubits(), n);
}

INSTANTIATE_TEST_SUITE_P(SmallCliques, CliqueEmbed,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u));

TEST(FindEmbedding, RandomSparseGraphs)
{
    HardwareGraph hw = chimera::chimeraGraph(8);
    Rng rng(71);
    for (int trial = 0; trial < 3; ++trial) {
        // ~40 vertices, average degree ~4.
        const uint32_t n = 40;
        std::vector<std::pair<uint32_t, uint32_t>> edges;
        for (uint32_t v = 1; v < n; ++v)
            edges.push_back(
                {static_cast<uint32_t>(rng.below(v)), v}); // connected
        for (uint32_t k = 0; k < n; ++k) {
            uint32_t a = static_cast<uint32_t>(rng.below(n));
            uint32_t b = static_cast<uint32_t>(rng.below(n));
            if (a != b)
                edges.push_back({std::min(a, b), std::max(a, b)});
        }
        EmbedParams p;
        p.seed = 100 + trial;
        auto emb = findEmbedding(edges, n, hw, p);
        EXPECT_TRUE(emb.has_value()) << "trial " << trial;
    }
}

TEST(FindEmbedding, IsolatedVerticesGetSingletons)
{
    HardwareGraph hw = chimera::chimeraGraph(2);
    auto emb = findEmbedding({}, 3, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    EXPECT_EQ(emb->totalQubits(), 3u);
    EXPECT_EQ(emb->maxChainLength(), 1u);
}

TEST(FindEmbedding, ImpossibleCaseReturnsNullopt)
{
    // K5 cannot fit in a single unit cell's 8 qubits... it can in a C1
    // actually; use a 4-node path hardware instead.
    HardwareGraph hw(4);
    hw.addEdge(0, 1);
    hw.addEdge(1, 2);
    hw.addEdge(2, 3);
    EmbedParams p;
    p.tries = 2;
    p.rounds = 8;
    auto emb = findEmbedding(cliqueEdges(4), 4, hw, p);
    EXPECT_FALSE(emb.has_value());
}

TEST(FindEmbedding, RespectsDropout)
{
    HardwareGraph hw = chimera::chimeraGraph(4);
    chimera::applyDropout(hw, 0.1, 3);
    auto emb = findEmbedding(cliqueEdges(5), 5, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    for (const auto &chain : emb->chains)
        for (uint32_t q : chain)
            EXPECT_TRUE(hw.isActive(q));
}

uint64_t
counterValue(const std::string &path)
{
    for (const auto &m : stats::Registry::global().snapshot())
        if (m.path == path && m.kind == stats::MetricKind::Counter)
            return m.count;
    return 0;
}

stats::Distribution::Summary
distribution(const std::string &path)
{
    for (const auto &m : stats::Registry::global().snapshot())
        if (m.path == path && m.kind == stats::MetricKind::Distribution)
            return m.dist;
    return {};
}

// Each try publishes its search effort and its rounds once it ends,
// and only while the registry is on.
TEST(FindEmbedding, CountsSearchEffortOnlyWhileEnabled)
{
    auto &reg = stats::Registry::global();
    HardwareGraph hw = chimera::chimeraGraph(16);
    EmbedParams p;
    p.tries = 1;

    bool prev = reg.setEnabled(false);
    reg.reset();
    ASSERT_TRUE(findEmbedding(cliqueEdges(5), 5, hw, p));
    EXPECT_TRUE(reg.snapshot().empty());

    reg.setEnabled(true);
    ASSERT_TRUE(findEmbedding(cliqueEdges(5), 5, hw, p));
    const uint64_t settled = counterValue("embed.minorminer.settled");
    EXPECT_GT(settled, 0u);
    bool raises = false;
    for (const auto &m : reg.snapshot())
        raises = raises || m.path == "embed.minorminer.limit_raises";
    EXPECT_TRUE(raises);
    // One sample of overfull qubits per completed round, one round
    // count per try.
    const stats::Distribution::Summary rounds =
        distribution("embed.minorminer.rounds");
    EXPECT_EQ(rounds.count, 1u);
    EXPECT_GE(rounds.mean, 1.0);
    const stats::Distribution::Summary overfull =
        distribution("embed.minorminer.overfull");
    EXPECT_EQ(static_cast<double>(overfull.count), rounds.mean);
    EXPECT_EQ(overfull.min, 0.0); // the last round is overlap-free

    reg.reset();
    reg.setEnabled(prev);
}

// Weights are base^usage; below 1 (or non-finite) an overlap no longer
// outweighs a detour, so only 0 (auto) and finite bases >= 1 embed.
TEST(FindEmbedding, RejectsOveruseBaseBelowOneOrNonFinite)
{
    HardwareGraph hw = chimera::chimeraGraph(2);
    for (double base : {0.5, -1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
        EmbedParams p;
        p.overuse_base = base;
        EXPECT_THROW(findEmbedding(cliqueEdges(3), 3, hw, p), FatalError)
            << base;
    }
    for (double base : {0.0, 1.0, 3.0}) {
        EmbedParams p;
        p.overuse_base = base;
        EXPECT_TRUE(findEmbedding(cliqueEdges(3), 3, hw, p)) << base;
    }
}

// ------------------------------------------------------ recorded chains

const std::string kGoldenDir = std::string(QAC_SOURCE_DIR) + "/tests/golden";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Compile options for @p program as tests/golden/compile_stats.txt
 *  lists it. */
core::CompileOptions
goldenOptions(const std::string &program)
{
    core::CompileOptions co;
    co.verilogOpts().top = program;
    co.cache.enabled = false;
    return co;
}

std::string
goldenSource(const std::string &program)
{
    const std::string path = program == "mux_add_sub"
                                 ? "examples/mux_add_sub.v"
                                 : "tests/golden/" + program + ".v";
    return readFile(std::string(QAC_SOURCE_DIR) + "/" + path);
}

std::string
chainDigest(const std::optional<Embedding> &emb)
{
    if (!emb)
        return "none";
    util::Hasher h;
    h.u64(emb->chains.size());
    for (const auto &chain : emb->chains) {
        h.u64(chain.size());
        for (uint32_t q : chain)
            h.u32(q);
    }
    return util::hexDigest(h.digest());
}

struct GoldenRow
{
    std::string program, variant;
    uint64_t seed = 0;
    std::string digest;
};

std::vector<GoldenRow>
goldenRows()
{
    std::vector<GoldenRow> out;
    std::istringstream rows(readFile(kGoldenDir + "/embeddings.txt"));
    std::string line;
    while (std::getline(rows, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        GoldenRow g;
        row >> g.program >> g.variant >> g.seed >> g.digest;
        EXPECT_TRUE(row) << line;
        out.push_back(g);
    }
    return out;
}

// The chains findEmbedding returned, seed for seed, before its
// shortest-path search was rewritten and then bounded
// (tests/golden/embeddings.txt).
TEST(EmbedGolden, ChainsMatchRecordedDigests)
{
    struct Logical
    {
        std::vector<std::pair<uint32_t, uint32_t>> edges;
        size_t num_vars = 0;
    };
    std::map<std::string, Logical> logical;
    size_t checked = 0;
    for (const GoldenRow &g : goldenRows()) {
        SCOPED_TRACE(g.program + " " + g.variant + " seed " +
                     std::to_string(g.seed));
        if (g.variant == "qo") {
            core::CompileOptions co = goldenOptions(g.program);
            co.target = core::Target::Chimera;
            co.chimera_size = 16;
            co.embed.seed = g.seed;
            core::CompileResult res =
                core::compile(goldenSource(g.program), co);
            EXPECT_EQ(artifact::qoDigestHex(artifact::serializeQo(res)),
                      g.digest);
            ++checked;
            continue;
        }
        auto it = logical.find(g.program);
        if (it == logical.end()) {
            core::CompileResult res = core::compile(
                goldenSource(g.program), goldenOptions(g.program));
            Logical l;
            for (const auto &t : res.assembled.model.quadraticTerms())
                l.edges.emplace_back(t.i, t.j);
            l.num_vars = res.assembled.model.numVars();
            it = logical.emplace(g.program, std::move(l)).first;
        }
        HardwareGraph hw = chimera::chimeraGraph(g.variant == "c3" ? 3 : 16);
        EmbedParams p;
        p.seed = g.seed;
        if (g.variant == "dropout")
            chimera::applyDropout(hw, 0.08, 7);
        else if (g.variant == "drop50")
            chimera::applyDropout(hw, 0.5, g.seed);
        else if (g.variant == "base3")
            p.overuse_base = 3.0;
        else if (g.variant == "base1e20")
            p.overuse_base = 1e20;
        else if (g.variant == "base1e100")
            p.overuse_base = 1e100;
        else if (g.variant != "c3") {
            ASSERT_EQ(g.variant, "c16");
        }
        EXPECT_EQ(chainDigest(findEmbedding(it->second.edges,
                                            it->second.num_vars, hw, p)),
                  g.digest);
        ++checked;
    }
    EXPECT_EQ(checked, 168u);
}

// The root choice skips a placement's far qubits (settled by no search)
// whenever none of them can win, and visits them one by one otherwise.
// Both paths must run on the golden inputs, or the digests above would
// not guard the one that does not.
TEST(FindEmbedding, GoldensVisitFarQubitsOnSomePlacements)
{
    auto &reg = stats::Registry::global();
    core::CompileResult res =
        core::compile(goldenSource("circsat"), goldenOptions("circsat"));
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : res.assembled.model.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    HardwareGraph hw = chimera::chimeraGraph(16);

    bool prev = reg.setEnabled(true);
    reg.reset();
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        EmbedParams p;
        p.seed = seed;
        ASSERT_TRUE(
            findEmbedding(edges, res.assembled.model.numVars(), hw, p));
    }
    const uint64_t far = counterValue("embed.minorminer.far_visits");
    const uint64_t placements = counterValue("embed.minorminer.placements");
    EXPECT_GT(far, 0u);
    EXPECT_LT(far, placements);
    reg.reset();
    reg.setEnabled(prev);
}

// Tries run in order and stop at the first success.  Running every try
// would return the same chains, so only the try count tells them apart.
TEST(FindEmbedding, TriesStopAtTheFirstSuccess)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);

    // The golden row mult c16 seed 15: tries 0-3 fail, try 4 embeds.
    core::CompileResult res =
        core::compile(goldenSource("mult"), goldenOptions("mult"));
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : res.assembled.model.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    HardwareGraph hw = chimera::chimeraGraph(16);
    EmbedParams p;
    p.seed = 15;
    p.tries = 4;
    reg.reset();
    EXPECT_FALSE(findEmbedding(edges, res.assembled.model.numVars(), hw, p));
    EXPECT_EQ(counterValue("embed.minorminer.tries"), 4u);
    p.tries = 8;
    reg.reset();
    EXPECT_TRUE(findEmbedding(edges, res.assembled.model.numVars(), hw, p));
    EXPECT_EQ(counterValue("embed.minorminer.tries"), 5u);

    // K4 never fits a 4-qubit path: every try runs.
    HardwareGraph path(4);
    path.addEdge(0, 1);
    path.addEdge(1, 2);
    path.addEdge(2, 3);
    EmbedParams q;
    q.tries = 3;
    q.rounds = 8;
    reg.reset();
    EXPECT_FALSE(findEmbedding(cliqueEdges(4), 4, path, q));
    EXPECT_EQ(counterValue("embed.minorminer.tries"), q.tries);

    reg.reset();
    reg.setEnabled(prev);
}

// ------------------------------------------------------------ embedModel

TEST(EmbedModel, EnergyEquivalenceOnChainUniformStates)
{
    // For chain-uniform physical states, E_phys = scale * (E_logical +
    // chain bonus), where the bonus is the constant sum of intra-chain
    // couplers all satisfied.  Verify by sweeping all logical states.
    HardwareGraph hw = chimera::chimeraGraph(16);
    IsingModel logical(3);
    logical.addLinear(0, 0.5);
    logical.addLinear(2, -1.0);
    logical.addQuadratic(0, 1, 1.0);
    logical.addQuadratic(1, 2, 1.0);
    logical.addQuadratic(0, 2, 1.0);
    auto emb = findEmbedding(cliqueEdges(3), 3, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());

    EmbedModelOptions opts;
    opts.scale_to_range = false;
    EmbeddedModel em = embedModel(logical, *emb, hw, opts);

    // Chain bonus: -chain_strength per intra-chain physical edge.
    size_t intra_edges = 0;
    for (const auto &chain : emb->chains)
        for (size_t a = 0; a < chain.size(); ++a)
            for (size_t b = a + 1; b < chain.size(); ++b)
                if (hw.hasEdge(chain[a], chain[b]))
                    ++intra_edges;
    double bonus = -em.chain_strength * static_cast<double>(intra_edges);

    for (uint64_t k = 0; k < 8; ++k) {
        SpinVector lg = ising::indexToSpins(k, 3);
        SpinVector phys = em.embedSolution(lg);
        EXPECT_NEAR(em.physical.energy(phys),
                    logical.energy(lg) + bonus, 1e-9);
    }
}

TEST(EmbedModel, ScalesIntoHardwareRange)
{
    HardwareGraph hw = chimera::chimeraGraph(16);
    IsingModel logical(3);
    logical.addLinear(0, 10.0); // out of range on purpose
    logical.addQuadratic(0, 1, 5.0);
    logical.addQuadratic(1, 2, -7.0);
    auto emb = findEmbedding({{0, 1}, {1, 2}}, 3, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    EmbeddedModel em = embedModel(logical, *emb, hw);
    EXPECT_LT(em.scale_factor, 1.0);
    EXPECT_TRUE(em.physical.withinRange(ising::CoefficientRange{}));
}

TEST(EmbedModel, UnembedMajorityVote)
{
    HardwareGraph hw = chimera::chimeraGraph(16);
    IsingModel logical(2);
    logical.addQuadratic(0, 1, -1.0);
    // Force multi-qubit chains by embedding a denser template.
    auto emb = findEmbedding(cliqueEdges(5), 5, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    Embedding two;
    two.chains = {emb->chains[0], emb->chains[1]};
    // Grow chain 0 artificially? Use as-is; chain may be length >= 1.
    EmbeddedModel em = embedModel(logical, two, hw);

    SpinVector phys = em.embedSolution({1, -1});
    size_t broken = 0;
    SpinVector lg = em.unembed(phys, &broken);
    EXPECT_EQ(broken, 0u);
    EXPECT_EQ(lg[0], 1);
    EXPECT_EQ(lg[1], -1);

    // Break one qubit of chain 0 (if it has >= 2 qubits, majority
    // still wins or the break is counted).
    if (em.dense_chains[0].size() >= 2) {
        phys[em.dense_chains[0][0]] =
            static_cast<ising::Spin>(-phys[em.dense_chains[0][0]]);
        lg = em.unembed(phys, &broken);
        EXPECT_EQ(broken, 1u);
    }
}

TEST(EmbedModel, GroundStateMatchesLogical)
{
    // Exact ground state of the embedded model unembeds to the logical
    // ground state.
    HardwareGraph hw = chimera::chimeraGraph(2);
    IsingModel logical(3);
    logical.addLinear(0, 0.6);
    logical.addQuadratic(0, 1, 1.0);
    logical.addQuadratic(1, 2, -0.8);
    logical.addQuadratic(0, 2, 0.9);
    auto emb = findEmbedding(cliqueEdges(3), 3, hw, EmbedParams{});
    ASSERT_TRUE(emb.has_value());
    EmbeddedModel em = embedModel(logical, *emb, hw);
    ASSERT_LE(em.numPhysicalQubits(), 16u);

    auto res = anneal::ExactSolver().solve(em.physical);
    double logical_min = anneal::ExactSolver().minEnergy(logical);
    for (const auto &gs : res.ground_states) {
        size_t broken = 0;
        SpinVector lg = em.unembed(gs, &broken);
        EXPECT_EQ(broken, 0u); // chains hold in the ground state
        EXPECT_NEAR(logical.energy(lg), logical_min, 1e-9);
    }
}

TEST(EmbedModel, MismatchedEmbeddingRejected)
{
    HardwareGraph hw = chimera::chimeraGraph(2);
    IsingModel logical(3);
    logical.addQuadratic(0, 1, 1.0);
    Embedding emb;
    emb.chains = {{0}, {4}}; // only 2 chains for 3 variables
    EXPECT_THROW(embedModel(logical, emb, hw), FatalError);
}

// ---------------------------------------------------------- roof duality

TEST(RoofDuality, FixesDominatedVariable)
{
    IsingModel m(2);
    m.addLinear(0, 5.0); // dominates the coupling
    m.addQuadratic(0, 1, 1.0);
    m.addLinear(1, 0.1);
    auto fix = fixVariables(m);
    // Variable 0 fixed to -1; then 1's field 0.1 - 1.0 = -0.9 fixes it
    // to +1 (cascade).
    ASSERT_EQ(fix.numFixed(), 2u);
    EXPECT_EQ(fix.fixed.at(0), -1);
    EXPECT_EQ(fix.fixed.at(1), 1);
    EXPECT_EQ(fix.reduced.numVars(), 0u);
    EXPECT_NEAR(fix.energy_offset, -5.0 - 0.9, 1e-9);
}

TEST(RoofDuality, LeavesBalancedModelAlone)
{
    IsingModel m(2);
    m.addLinear(0, 0.5);
    m.addQuadratic(0, 1, 1.0); // coupling mass > |h|
    auto fix = fixVariables(m);
    EXPECT_EQ(fix.numFixed(), 0u);
    EXPECT_EQ(fix.reduced.numVars(), 2u);
}

TEST(RoofDuality, PreservesMinimumEnergyOnRandomModels)
{
    Rng rng(81);
    anneal::ExactSolver exact;
    for (int trial = 0; trial < 20; ++trial) {
        IsingModel m(10);
        for (uint32_t i = 0; i < 10; ++i)
            m.addLinear(i, rng.uniform() * 6 - 3); // strong fields
        for (uint32_t i = 0; i < 10; ++i)
            for (uint32_t j = i + 1; j < 10; ++j)
                if (rng.chance(0.3))
                    m.addQuadratic(i, j, rng.uniform() * 2 - 1);
        auto fix = fixVariables(m);
        double want = exact.minEnergy(m);
        double got = fix.energy_offset;
        if (fix.reduced.numVars() > 0)
            got += exact.minEnergy(fix.reduced);
        EXPECT_NEAR(got, want, 1e-9) << "trial " << trial;
    }
}

TEST(RoofDuality, LiftRestoresIndexSpace)
{
    IsingModel m(3);
    m.addLinear(1, 9.0); // only variable 1 fixable
    m.addQuadratic(0, 2, 1.0);
    auto fix = fixVariables(m);
    ASSERT_EQ(fix.numFixed(), 1u);
    SpinVector lifted = fix.lift({1, -1});
    ASSERT_EQ(lifted.size(), 3u);
    EXPECT_EQ(lifted[1], -1);
    EXPECT_EQ(lifted[0], 1);
    EXPECT_EQ(lifted[2], -1);
}

TEST(RoofDuality, FixedValuesAppearInSomeGroundState)
{
    // Weak persistency: every fixing is consistent with at least one
    // global optimum.
    Rng rng(82);
    anneal::ExactSolver exact;
    for (int trial = 0; trial < 10; ++trial) {
        IsingModel m(8);
        for (uint32_t i = 0; i < 8; ++i)
            m.addLinear(i, rng.uniform() * 4 - 2);
        for (uint32_t i = 0; i < 8; ++i)
            for (uint32_t j = i + 1; j < 8; ++j)
                if (rng.chance(0.3))
                    m.addQuadratic(i, j, rng.uniform() * 2 - 1);
        auto fix = fixVariables(m);
        if (fix.fixed.empty())
            continue;
        auto res = exact.solve(m);
        bool any_match = false;
        for (const auto &gs : res.ground_states) {
            bool all = true;
            for (const auto &[v, s] : fix.fixed)
                if (gs[v] != s)
                    all = false;
            any_match |= all;
        }
        EXPECT_TRUE(any_match) << "trial " << trial;
    }
}

} // namespace
} // namespace qac::embed
