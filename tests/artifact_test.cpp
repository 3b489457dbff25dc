/**
 * @file
 * Tests for the compiled-artifact subsystem: the .qo object format
 * (exact canonical round-trips, structured corruption errors) and the
 * content-addressed embedding cache (warm hits skip the embedder,
 * corrupt entries degrade to recompute, LRU eviction, the shared size
 * ledger that spares most stores a directory walk, concurrent stores,
 * negative entries, environment-variable configuration).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "qac/artifact/cache.h"
#include "qac/artifact/qo.h"
#include "qac/artifact/serial.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/edif/writer.h"
#include "qac/stats/registry.h"
#include "qac/util/hash.h"

namespace qac::artifact {
namespace {

namespace fs = std::filesystem;

const char *kMult = R"(
module mult (A, B, C);
  input [1:0] A, B;
  output [3:0] C;
  assign C = A * B;
endmodule
)";

/** Fresh per-process scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) /
        (name + "." + std::to_string(::getpid()));
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** Compile the 2x2 multiplier; caching only when a dir is given. */
core::CompileResult
compileMult(bool chimera, const std::string &cache_dir = "")
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "mult";
    opts.cache.enabled = !cache_dir.empty();
    opts.cache.dir = cache_dir;
    if (chimera) {
        opts.target = core::Target::Chimera;
        opts.chimera_size = 8;
    }
    return core::compile(kMult, opts);
}

uint64_t
counterValue(const std::string &path)
{
    for (const auto &m : stats::Registry::global().snapshot())
        if (m.path == path && m.kind == stats::MetricKind::Counter)
            return m.count;
    return 0;
}

uint64_t
timerCalls(const std::string &path)
{
    for (const auto &m : stats::Registry::global().snapshot())
        if (m.path == path && m.kind == stats::MetricKind::Timer)
            return m.count;
    return 0;
}

/** Bytes of every regular file in @p dir. */
uint64_t
diskBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            total += e.file_size();
    return total;
}

// ---------------------------------------------------------------- serial

TEST(Serial, WriterReaderRoundTrip)
{
    Writer w;
    w.u8(7);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(-0.125);
    w.str("hello");
    w.str("");

    Reader r(w.buffer());
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_DOUBLE_EQ(r.f64(), -0.125);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serial, ReaderFailsPastEnd)
{
    Writer w;
    w.u32(5);
    Reader r(w.buffer());
    EXPECT_EQ(r.u32(), 5u);
    EXPECT_EQ(r.u64(), 0u); // past end: zero value, fail flag set
    EXPECT_FALSE(r.ok());
}

TEST(Serial, FrameRoundTripAndStructuredErrors)
{
    const char magic[4] = {'Q', 'A', 'C', 'O'};
    std::string file = frame(magic, "payload bytes");

    // Failures report a typed FrameError code (shared with the
    // service wire protocol's error frames), not just prose.
    std::string err;
    FrameError code = FrameError::ChecksumMismatch;
    auto payload = unframe(file, magic, &err, &code);
    ASSERT_TRUE(payload) << err;
    EXPECT_EQ(*payload, "payload bytes");
    EXPECT_EQ(code, FrameError::Ok);

    // Wrong magic.
    const char other[4] = {'N', 'O', 'P', 'E'};
    EXPECT_FALSE(unframe(file, other, &err, &code));
    EXPECT_EQ(code, FrameError::BadMagic);
    EXPECT_FALSE(err.empty());

    // Version mismatch: byte 4 is the low byte of the version u32.
    std::string bumped = file;
    bumped[4] = static_cast<char>(bumped[4] + 1);
    EXPECT_FALSE(unframe(bumped, magic, &err, &code));
    EXPECT_EQ(code, FrameError::VersionMismatch);

    // Truncation: payload shorter than claimed, then header cut off.
    EXPECT_FALSE(
        unframe(std::string_view(file).substr(0, file.size() - 3),
                magic, &err, &code));
    EXPECT_EQ(code, FrameError::TruncatedPayload);
    EXPECT_FALSE(unframe("QA", magic, &err, &code));
    EXPECT_EQ(code, FrameError::TruncatedHeader);

    // Payload bit flip -> checksum mismatch.
    std::string flipped = file;
    flipped[flipped.size() - 1] ^= 0x40;
    EXPECT_FALSE(unframe(flipped, magic, &err, &code));
    EXPECT_EQ(code, FrameError::ChecksumMismatch);

    // Every code renders a stable identifier for logs/error frames.
    for (FrameError c :
         {FrameError::Ok, FrameError::TruncatedHeader,
          FrameError::BadMagic, FrameError::VersionMismatch,
          FrameError::TruncatedPayload, FrameError::ChecksumMismatch})
        EXPECT_STRNE(frameErrorName(c), "unknown");
}

// ---------------------------------------------------------------- .qo

TEST(Qo, LogicalRoundTripIsByteIdentical)
{
    auto compiled = compileMult(false);
    std::string bytes = serializeQo(compiled);

    std::string err;
    auto reloaded = deserializeQo(bytes, &err);
    ASSERT_TRUE(reloaded) << err;
    EXPECT_EQ(serializeQo(*reloaded), bytes);

    EXPECT_EQ(reloaded->assembled.model, compiled.assembled.model);
    EXPECT_EQ(reloaded->assembled.sym_to_var,
              compiled.assembled.sym_to_var);
    EXPECT_EQ(reloaded->edif_text, compiled.edif_text);
    EXPECT_EQ(reloaded->stats.gates, compiled.stats.gates);
    EXPECT_FALSE(reloaded->embedding.has_value());
}

TEST(Qo, ChimeraRoundTripIsByteIdentical)
{
    auto compiled = compileMult(true);
    std::string bytes = serializeQo(compiled);

    std::string err;
    auto reloaded = deserializeQo(bytes, &err);
    ASSERT_TRUE(reloaded) << err;
    EXPECT_EQ(serializeQo(*reloaded), bytes);

    ASSERT_TRUE(reloaded->embedding.has_value());
    ASSERT_TRUE(reloaded->embedded.has_value());
    ASSERT_TRUE(reloaded->hardware.has_value());
    EXPECT_EQ(reloaded->embedding->chains, compiled.embedding->chains);
    EXPECT_EQ(reloaded->embedded->physical,
              compiled.embedded->physical);
    EXPECT_EQ(reloaded->stats.physical_qubits,
              compiled.stats.physical_qubits);
    EXPECT_EQ(reloaded->stats.max_chain_length,
              compiled.stats.max_chain_length);
}

/**
 * Round-trip @p compiled through the .qo form and require samples
 * from the reloaded executable to be bitwise identical to the
 * original's, at several thread counts.
 */
void
expectReloadedRunsIdentical(core::CompileResult compiled,
                            bool use_physical)
{
    core::CompileResult copy = compiled;
    auto reloaded = deserializeQo(serializeQo(compiled));
    ASSERT_TRUE(reloaded);

    core::Executable direct(std::move(copy));
    core::Executable fromqo(std::move(*reloaded));
    direct.pinDirective("C[3:0] := 0110");
    fromqo.pinDirective("C[3:0] := 0110");

    for (uint32_t threads : {1u, 8u}) {
        core::Executable::RunOptions ro;
        ro.solver = "sa";
        ro.common.num_reads = 64;
        ro.sweeps = 128;
        ro.common.seed = 5;
        ro.common.threads = threads;
        ro.use_physical = use_physical;
        if (use_physical)
            ro.reduce = false;
        auto ra = direct.run(ro);
        auto rb = fromqo.run(ro);
        ASSERT_EQ(ra.candidates.size(), rb.candidates.size())
            << "threads=" << threads;
        EXPECT_EQ(ra.total_reads, rb.total_reads);
        for (size_t i = 0; i < ra.candidates.size(); ++i) {
            const auto &a = ra.candidates[i];
            const auto &b = rb.candidates[i];
            EXPECT_EQ(a.values, b.values) << "threads=" << threads;
            EXPECT_EQ(a.energy, b.energy) << "threads=" << threads;
            EXPECT_EQ(a.occurrences, b.occurrences);
            EXPECT_EQ(a.valid, b.valid);
        }
    }
}

TEST(Qo, ReloadedExecutableSamplesBitwiseIdentically)
{
    expectReloadedRunsIdentical(compileMult(false), false);
}

// The chimera-target run paths fold floats over model views that are
// rebuilt from the .qo (adjacency masses for pins, roof-duality
// fixing, candidate energies); any iteration-order dependence shows
// up here as a tie-break divergence that the logical test misses.
TEST(Qo, ChimeraReloadedRunsIdenticallyReduced)
{
    expectReloadedRunsIdentical(compileMult(true), false);
}

TEST(Qo, ChimeraReloadedRunsIdenticallyPhysical)
{
    expectReloadedRunsIdentical(compileMult(true), true);
}

TEST(Qo, FileErrorsAreStructuredAndNonFatal)
{
    std::string dir = scratchDir("qo_errors");
    std::string path = dir + "/m.qo";
    auto compiled = compileMult(false);
    std::string err;
    ASSERT_TRUE(writeQoFile(path, compiled, &err)) << err;
    ASSERT_TRUE(readQoFile(path, &err)) << err;

    // Missing file.
    EXPECT_FALSE(readQoFile(dir + "/nope.qo", &err));
    EXPECT_FALSE(err.empty());

    std::string bytes = serializeQo(compiled);

    auto rewrite = [&](const std::string &data) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << data;
    };

    // Truncated file.
    rewrite(bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(readQoFile(path, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;

    // Single bit flip deep in the payload.
    std::string flipped = bytes;
    flipped[flipped.size() - 7] ^= 0x01;
    rewrite(flipped);
    EXPECT_FALSE(readQoFile(path, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;

    // Future format version.
    std::string bumped = bytes;
    bumped[4] = static_cast<char>(bumped[4] + 1);
    rewrite(bumped);
    EXPECT_FALSE(readQoFile(path, &err));
    EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;
}

/**
 * @p compiled serialized, with the u64 that directly precedes the
 * little-endian bytes of @p marker in the payload replaced by
 * @p value, and the frame rebuilt around the patched payload.
 */
std::string
patchedQo(const core::CompileResult &compiled, const std::string &marker,
          uint64_t value)
{
    std::string bytes = serializeQo(compiled);
    auto payload = unframe(bytes, bytes.substr(0, 4).c_str());
    EXPECT_TRUE(payload);
    std::string body(*payload);
    size_t at = body.find(marker);
    EXPECT_NE(at, std::string::npos);
    EXPECT_GE(at, 8u);
    Writer w;
    w.u64(value);
    body.replace(at - 8, 8, w.buffer());
    return frame(bytes.substr(0, 4).c_str(), body);
}

std::string
u32Bytes(std::initializer_list<uint32_t> values)
{
    Writer w;
    for (uint32_t v : values)
        w.u32(v);
    return w.buffer();
}

// A chain length of 2^62 wraps "len * 4" to zero; the loader must
// reject it instead of reserving 2^62 entries.
TEST(Qo, HugeChainLengthIsMalformedNotAnAllocation)
{
    auto compiled = compileMult(false);
    embed::Embedding emb;
    emb.chains = {{0x51a7c4a1u, 0x51a7c4a2u, 0x51a7c4a3u}};
    compiled.embedding = emb;
    std::string marker = u32Bytes({0x51a7c4a1u, 0x51a7c4a2u, 0x51a7c4a3u});
    for (uint64_t len : {uint64_t{1} << 62, (uint64_t{1} << 62) + 1,
                         ~uint64_t{0}}) {
        std::string err;
        EXPECT_FALSE(deserializeQo(patchedQo(compiled, marker, len), &err))
            << len;
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
}

// Same for a DIMACS clause's literal count.
TEST(Qo, HugeClauseLengthIsMalformedNotAnAllocation)
{
    auto compiled = compileMult(false);
    dimacs::DecodeInfo decode;
    dimacs::Clause cl;
    cl.lits = {0x3e1f00a1, 0x3e1f00a2, 0x3e1f00a3};
    decode.clauses.push_back(cl);
    compiled.dimacs_decode = decode;
    std::string marker = u32Bytes({0x3e1f00a1u, 0x3e1f00a2u, 0x3e1f00a3u});
    for (uint64_t nlits : {uint64_t{1} << 62, (uint64_t{1} << 62) + 1,
                           ~uint64_t{0}}) {
        std::string err;
        EXPECT_FALSE(
            deserializeQo(patchedQo(compiled, marker, nlits), &err))
            << nlits;
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
}

// The hardware graph's node count is read before anything else of the
// graph: a count past the largest Chimera size must fail the load
// instead of allocating a graph of that size (2^32 nodes: ~100 GiB).
TEST(Qo, HugeHardwareNodeCountIsMalformedNotAnAllocation)
{
    auto compiled = compileMult(false);
    chimera::HardwareGraph hw = chimera::chimeraGraph(1);
    for (uint32_t q : {5u, 6u, 7u})
        hw.deactivate(q);
    compiled.hardware = hw;
    // The inactive-qubit list follows the node count.
    std::string marker = u32Bytes({3, 0, 5, 6, 7});
    for (uint64_t nodes :
         {uint64_t{chimera::kMaxChimeraQubits} + 1, uint64_t{1} << 32}) {
        std::string err;
        EXPECT_FALSE(deserializeQo(patchedQo(compiled, marker, nodes), &err))
            << nodes;
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
    std::string err;
    auto at_cap = deserializeQo(
        patchedQo(compiled, marker, chimera::kMaxChimeraQubits), &err);
    ASSERT_TRUE(at_cap) << err;
    ASSERT_TRUE(at_cap->hardware);
    EXPECT_EQ(at_cap->hardware->numNodes(), chimera::kMaxChimeraQubits);
}

/** serializeQo(compiled) with the payload bytes @p from replaced by
 *  @p to (and the frame re-sealed). */
std::string
rewrittenQo(const core::CompileResult &compiled, const std::string &from,
            const std::string &to)
{
    std::string bytes = serializeQo(compiled);
    auto payload = unframe(bytes, bytes.substr(0, 4).c_str());
    EXPECT_TRUE(payload);
    std::string body(*payload);
    size_t at = body.find(from);
    EXPECT_NE(at, std::string::npos);
    body.replace(at, from.size(), to);
    return frame(bytes.substr(0, 4).c_str(), body);
}

// The hardware decoder accepts only what writeHardware writes.  A
// crafted graph with a repeated or out-of-order edge, or a qubit with
// more couplers than Chimera gives one (6), fails the load: otherwise
// a dense graph would cost O(edges x degree) in HardwareGraph::addEdge.
TEST(Qo, HardwareOutsideTheWriterShapeIsMalformed)
{
    auto expectMalformed = [](const std::string &qo, const char *what) {
        std::string err;
        EXPECT_FALSE(deserializeQo(qo, &err)) << what;
        EXPECT_NE(err.find("malformed"), std::string::npos)
            << what << ": " << err;
    };
    auto compiled = compileMult(false);
    compiled.hardware = chimera::chimeraGraph(1);
    // C1 is one K_{4,4} cell: 8 nodes, none inactive, 16 edges, sorted
    // (0,4) (0,5) (0,6) (0,7) (1,4) ...
    Writer head;
    head.u64(8);
    head.u64(0);
    head.u64(16);
    const std::string edges = head.buffer() + u32Bytes({0, 4, 0, 5, 0, 6});
    auto firstEdges = [&](std::initializer_list<uint32_t> pairs) {
        return rewrittenQo(compiled, edges, head.buffer() + u32Bytes(pairs));
    };
    expectMalformed(firstEdges({0, 4, 0, 4, 0, 6}), "repeated edge");
    expectMalformed(firstEdges({0, 5, 0, 4, 0, 6}), "unsorted edges");
    expectMalformed(firstEdges({0, 4, 5, 0, 0, 6}), "u > v");
    expectMalformed(firstEdges({0, 4, 0, 0, 0, 6}), "self-loop");
    expectMalformed(firstEdges({0, 4, 0, 5, 0, 9}),
                    "endpoint past the node count");
    std::string err;
    ASSERT_TRUE(deserializeQo(firstEdges({0, 4, 0, 5, 0, 6}), &err)) << err;

    // Degree: qubit 0 already couples to 4..7; two same-side couplers
    // bring it to Chimera's 6 and still load, a third is one too many.
    chimera::HardwareGraph hw = chimera::chimeraGraph(1);
    hw.addEdge(0, 1);
    hw.addEdge(0, 2);
    compiled.hardware = hw;
    const std::string six = serializeQo(compiled);
    auto loaded = deserializeQo(six, &err);
    ASSERT_TRUE(loaded) << err;
    EXPECT_EQ(serializeQo(*loaded), six);
    hw.addEdge(0, 3);
    compiled.hardware = hw;
    expectMalformed(serializeQo(compiled), "7 couplers");

    // Inactive ids (after their u64 count) must be strictly increasing.
    hw = chimera::chimeraGraph(1);
    for (uint32_t q : {5u, 6u, 7u})
        hw.deactivate(q);
    compiled.hardware = hw;
    expectMalformed(rewrittenQo(compiled, u32Bytes({3, 0, 5, 6, 7}),
                                u32Bytes({3, 0, 6, 5, 7})),
                    "unsorted inactive ids");
}

// EDIF stored in a .qo is parsed on load; nesting deep enough to
// overflow the parser's stack must fail the load, not crash it.
TEST(Qo, DeeplyNestedEdifFailsTheLoad)
{
    auto compiled = compileMult(false);
    compiled.edif_text = std::string(1000000, '(');
    std::string err;
    EXPECT_FALSE(deserializeQo(serializeQo(compiled), &err));
    EXPECT_NE(err.find("EDIF"), std::string::npos) << err;
    EXPECT_NE(err.find("nested"), std::string::npos) << err;
}

// EDIF whose instances break a driver rule (two drivers on one net, a
// driven GND/VCC net, a driven input port) must fail the load with an
// error, not abort in Netlist::check().
TEST(Qo, EdifBreakingDriverRulesFailsTheLoad)
{
    using netlist::Netlist;
    using netlist::PortDir;
    auto badNetlists = [] {
        std::vector<std::pair<Netlist, std::string>> out;
        Netlist two;
        netlist::NetId a = two.addPort("a", PortDir::Input, 1).bits[0];
        netlist::NetId y = two.addPort("y", PortDir::Output, 1).bits[0];
        two.addGate(cells::GateType::NOT, {a}, y);
        two.addGate(cells::GateType::BUF, {a}, y);
        out.emplace_back(two, "driven by instances");
        Netlist gnd;
        a = gnd.addPort("a", PortDir::Input, 1).bits[0];
        gnd.addPortOver("y", PortDir::Output, {netlist::kConst0});
        gnd.addGate(cells::GateType::NOT, {a}, netlist::kConst0);
        out.emplace_back(gnd, "GND/VCC");
        Netlist in;
        a = in.addPort("a", PortDir::Input, 1).bits[0];
        netlist::NetId b = in.addPort("b", PortDir::Input, 1).bits[0];
        in.addGate(cells::GateType::NOT, {a}, b);
        out.emplace_back(in, "drives input port");
        return out;
    };
    auto compiled = compileMult(false);
    for (const auto &[nl, what] : badNetlists()) {
        compiled.edif_text = edif::writeEdif(nl);
        std::string err;
        EXPECT_FALSE(deserializeQo(serializeQo(compiled), &err)) << what;
        EXPECT_NE(err.find("EDIF"), std::string::npos) << err;
        EXPECT_NE(err.find(what), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------- cache

TEST(Cache, DefaultDirHonorsEnvOverride)
{
    std::string dir = scratchDir("envcache");
    ASSERT_EQ(::setenv("QAC_CACHE_DIR", dir.c_str(), 1), 0);
    EXPECT_EQ(defaultCacheDir(), dir);
    ASSERT_EQ(::unsetenv("QAC_CACHE_DIR"), 0);
    EXPECT_NE(defaultCacheDir(), dir);
}

TEST(Cache, StoreLoadAndLruEviction)
{
    CacheOptions opts;
    opts.dir = scratchDir("evict");
    opts.max_bytes = 150;
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    EXPECT_FALSE(cache.load("absent"));
    std::string blob(100, 'x');
    EXPECT_TRUE(cache.store("a", blob));
    auto got = cache.load("a");
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, blob);

    // Two more 100-byte entries blow the 150-byte cap; eviction must
    // bring the directory back under it.
    EXPECT_TRUE(cache.store("b", blob));
    EXPECT_TRUE(cache.store("c", blob));
    uint64_t total = 0;
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(opts.dir)) {
        total += e.file_size();
        ++files;
    }
    EXPECT_LE(total, opts.max_bytes);
    EXPECT_LT(files, 3u);
}

TEST(Cache, BytesGaugeMatchesDiskAfterEviction)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    CacheOptions opts;
    opts.dir = scratchDir("gauge");
    opts.max_bytes = 250;
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    // Entries of 100, 70 and 120 bytes: the third store evicts.
    EXPECT_TRUE(cache.store("a", std::string(100, 'a')));
    EXPECT_TRUE(cache.store("b", std::string(70, 'b')));
    EXPECT_TRUE(cache.store("c", std::string(120, 'c')));
    EXPECT_GE(counterValue("qac.cache.evict"), 1u);
    uint64_t on_disk = 0;
    for (const auto &e : fs::directory_iterator(opts.dir))
        on_disk += e.file_size();
    EXPECT_LE(on_disk, opts.max_bytes);
    EXPECT_EQ(counterValue("qac.cache.bytes"), on_disk);

    reg.reset();
    reg.setEnabled(prev);
}

TEST(Cache, ConcurrentStoresOfOneEntryAllSucceed)
{
    const std::string blob(64 << 10, 'q');
    CacheOptions opts;
    opts.dir = scratchDir("concurrent");
    // Two entries' worth: every store walks while other threads'
    // temp files are on disk, and the walk must leave them alone.
    opts.max_bytes = 2 * blob.size();
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    constexpr int kThreads = 8, kStores = 50;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kStores; ++i)
                failures[t] += !cache.store("same", blob);
        });
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    auto got = cache.load("same");
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, blob);
    // No temp file outlives its store.
    EXPECT_EQ(diskBytes(opts.dir), blob.size());
}

TEST(Cache, FullCacheWalksOncePerEighthOfStores)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    CacheOptions opts;
    opts.dir = scratchDir("ledger");
    opts.max_bytes = 8000;
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    // Fill to the cap with 50-byte entries, then keep storing.
    const std::string blob(50, 'l');
    int n = 0;
    while (diskBytes(opts.dir) + blob.size() <= opts.max_bytes)
        ASSERT_TRUE(cache.store("fill" + std::to_string(n++), blob));
    const uint64_t walks_at_cap = counterValue("qac.cache.walks");
    constexpr int kStores = 400;
    for (int i = 0; i < kStores; ++i) {
        ASSERT_TRUE(cache.store("e" + std::to_string(i), blob));
        uint64_t on_disk = diskBytes(opts.dir);
        ASSERT_LE(on_disk, opts.max_bytes) << "store " << i;
        ASSERT_EQ(counterValue("qac.cache.bytes"), on_disk)
            << "store " << i;
    }
    uint64_t walks = counterValue("qac.cache.walks") - walks_at_cap;
    EXPECT_GE(counterValue("qac.cache.evict"), 1u);
    EXPECT_GE(walks, 1u);
    EXPECT_LE(walks, kStores / 5u);

    reg.reset();
    reg.setEnabled(prev);
}

TEST(Cache, ReplacingAnEntryIsNotCountedTwice)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    CacheOptions opts;
    opts.dir = scratchDir("replace");
    opts.max_bytes = 1 << 20;
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    // Far below max_bytes/8 of stores: only the first store walks, so
    // the gauge is the ledger's own arithmetic.
    for (size_t size : {300, 300, 50, 700}) {
        ASSERT_TRUE(cache.store("a", std::string(size, 'r')));
        EXPECT_EQ(counterValue("qac.cache.bytes"), size);
    }
    ASSERT_TRUE(cache.store("b", std::string(10, 'r')));
    EXPECT_EQ(counterValue("qac.cache.bytes"), 710u);
    EXPECT_EQ(diskBytes(opts.dir), 710u);
    EXPECT_EQ(counterValue("qac.cache.walks"), 1u);

    reg.reset();
    reg.setEnabled(prev);
}

TEST(Cache, ForeignWritesAreCaughtWithinAnEighthOfStores)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    CacheOptions opts;
    opts.dir = scratchDir("foreign");
    opts.max_bytes = 8000;
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    const std::string blob(50, 'f');
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(cache.store("own" + std::to_string(i), blob));
    // Another writer pushes the directory over the cap unseen.
    std::ofstream(opts.dir + "/foreign", std::ios::binary)
        << std::string(5000, 'x');
    ASSERT_GT(diskBytes(opts.dir), opts.max_bytes);

    uint64_t stored = 0;
    for (int i = 0; stored < opts.max_bytes / 8; ++i) {
        ASSERT_TRUE(cache.store("new" + std::to_string(i), blob));
        stored += blob.size();
    }
    uint64_t on_disk = diskBytes(opts.dir);
    EXPECT_LE(on_disk, opts.max_bytes);
    EXPECT_EQ(counterValue("qac.cache.bytes"), on_disk);

    reg.reset();
    reg.setEnabled(prev);
}

TEST(Cache, CachesOnOneDirectoryShareTheLedger)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    CacheOptions opts;
    opts.dir = scratchDir("shared");
    Cache first(opts);
    ASSERT_TRUE(first.enabled());
    ASSERT_TRUE(first.store("a", std::string(100, 's')));
    EXPECT_EQ(counterValue("qac.cache.walks"), 1u);

    // Another spelling of the same directory finds the same ledger.
    opts.dir += "/.";
    Cache second(opts);
    ASSERT_TRUE(second.store("b", std::string(100, 's')));
    EXPECT_EQ(counterValue("qac.cache.walks"), 1u);
    EXPECT_EQ(counterValue("qac.cache.bytes"), 200u);

    reg.reset();
    reg.setEnabled(prev);
}

TEST(Cache, WalkDeletesOrphanedTempFilesOnly)
{
    CacheOptions opts;
    opts.dir = scratchDir("orphans");
    // A writer that crashed two hours ago, and one still writing.
    const fs::path stale = fs::path(opts.dir) / "x.qoe.tmp.1.0";
    const fs::path fresh = fs::path(opts.dir) / "y.qoe.tmp.2.0";
    std::ofstream(stale) << "stale";
    std::ofstream(fresh) << "fresh";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));

    Cache cache(opts);
    ASSERT_TRUE(cache.store("a", std::string(10, 'a')));
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(opts.dir))
        names.insert(e.path().filename().string());
    EXPECT_EQ(names, (std::set<std::string>{"a", "y.qoe.tmp.2.0"}));
}

TEST(Cache, UnusableDirDisablesGracefully)
{
    CacheOptions opts;
    // A path under a regular file can never be created.
    std::string dir = scratchDir("blocked");
    std::ofstream(dir + "/file") << "x";
    opts.dir = dir + "/file/sub";
    Cache cache(opts);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.load("a"));
    EXPECT_FALSE(cache.store("a", "bytes"));
}

TEST(Cache, EmbeddingRoundTripAndNegativeEntries)
{
    CacheOptions opts;
    opts.dir = scratchDir("embcache");
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    // Two logical variables on a single Chimera cell: chains {0},{4}
    // joined by the real hardware edge 0-4.
    auto hw = chimera::chimeraGraph(1);
    std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}};
    embed::Embedding emb;
    emb.chains = {{0}, {4}};

    embed::EmbedParams params;
    uint64_t key = embeddingCacheKey(ising::IsingModel(2), hw, params);

    EXPECT_FALSE(lookupEmbedding(cache, key, edges, hw).hit);

    storeEmbedding(cache, key, emb);
    auto probe = lookupEmbedding(cache, key, edges, hw);
    ASSERT_TRUE(probe.hit);
    ASSERT_TRUE(probe.embeddable);
    ASSERT_TRUE(probe.embedding);
    EXPECT_EQ(probe.embedding->chains, emb.chains);

    // Negative entry: a different key remembered as unembeddable.
    storeEmbedding(cache, key + 1, std::nullopt);
    auto neg = lookupEmbedding(cache, key + 1, edges, hw);
    EXPECT_TRUE(neg.hit);
    EXPECT_FALSE(neg.embeddable);
    EXPECT_FALSE(neg.embedding);
}

TEST(Cache, CorruptOrMismatchedEntriesBehaveAsMiss)
{
    CacheOptions opts;
    opts.dir = scratchDir("corrupt");
    Cache cache(opts);
    ASSERT_TRUE(cache.enabled());

    auto hw = chimera::chimeraGraph(1);
    std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}};
    embed::EmbedParams params;
    uint64_t key = embeddingCacheKey(ising::IsingModel(2), hw, params);

    // Garbage bytes under the right name: unframe rejects them.
    ASSERT_TRUE(cache.store(embeddingEntryName(key), "not a frame"));
    EXPECT_FALSE(lookupEmbedding(cache, key, edges, hw).hit);

    // A well-framed entry whose chains do not solve *this* problem
    // (qubits 0 and 1 share no hardware edge): verification rejects it.
    embed::Embedding wrong;
    wrong.chains = {{0}, {1}};
    storeEmbedding(cache, key, wrong);
    EXPECT_FALSE(lookupEmbedding(cache, key, edges, hw).hit);
}

TEST(Cache, KeyIsSensitiveToEveryInput)
{
    auto hw = chimera::chimeraGraph(2);
    embed::EmbedParams params;
    ising::IsingModel model(3);
    model.addQuadratic(0, 1, -1.0);

    uint64_t base = embeddingCacheKey(model, hw, params);
    EXPECT_EQ(embeddingCacheKey(model, hw, params), base);

    ising::IsingModel other = model;
    other.addLinear(2, 0.5);
    EXPECT_NE(embeddingCacheKey(other, hw, params), base);

    embed::EmbedParams seeded = params;
    seeded.seed = 2;
    EXPECT_NE(embeddingCacheKey(model, hw, seeded), base);

    auto smaller = chimera::chimeraGraph(1);
    EXPECT_NE(embeddingCacheKey(model, smaller, params), base);
}

// ------------------------------------------------- compiler integration

TEST(CompilerCache, WarmCompileSkipsEmbedderAndMatchesCold)
{
    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    std::string dir = scratchDir("warm");

    reg.reset();
    auto cold = compileMult(true, dir);
    EXPECT_GE(counterValue("qac.cache.miss"), 1u);
    EXPECT_EQ(counterValue("qac.cache.hit"), 0u);
    EXPECT_GE(timerCalls("compile.embed"), 1u);

    reg.reset();
    auto warm = compileMult(true, dir);
    EXPECT_GE(counterValue("qac.cache.hit"), 1u);
    EXPECT_EQ(counterValue("qac.cache.miss"), 0u);
    // The acceptance criterion: a warm compile never enters the
    // embedder, so its timer records zero calls.
    EXPECT_EQ(timerCalls("compile.embed"), 0u);

    ASSERT_TRUE(cold.embedding && warm.embedding);
    EXPECT_EQ(warm.embedding->chains, cold.embedding->chains);
    EXPECT_EQ(warm.embedded->physical, cold.embedded->physical);
    EXPECT_EQ(serializeQo(warm), serializeQo(cold));

    reg.reset();
    reg.setEnabled(prev);
}

TEST(CompilerCache, CorruptEntryFallsBackToRecompute)
{
    std::string dir = scratchDir("fallback");
    auto cold = compileMult(true, dir);

    // Smash every cache entry; the next compile must still succeed
    // (and rewrite good entries).
    for (const auto &e : fs::directory_iterator(dir)) {
        std::ofstream out(e.path(),
                          std::ios::binary | std::ios::trunc);
        out << "garbage";
    }
    auto recomputed = compileMult(true, dir);
    ASSERT_TRUE(recomputed.embedding);
    EXPECT_EQ(recomputed.embedding->chains, cold.embedding->chains);

    auto warm = compileMult(true, dir);
    EXPECT_EQ(warm.embedding->chains, cold.embedding->chains);
}

} // namespace
} // namespace qac::artifact
