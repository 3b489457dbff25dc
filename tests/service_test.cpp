/**
 * @file
 * Tests for the serving layer (DESIGN.md §12): wire codecs, the
 * request/result canonical byte codecs, the LRU object store, the
 * batching service core, and a full loopback server/client round
 * trip.  The load-bearing properties are the redesign's acceptance
 * criteria:
 *
 *  - a batched run is byte-identical to the same request served
 *    alone, at any thread count;
 *  - (seed, request id) replays exactly;
 *  - a full queue is typed backpressure (QueueFull), never a drop;
 *  - graceful drain completes every accepted request.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "qac/artifact/qo.h"
#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/service/client.h"
#include "qac/service/object_store.h"
#include "qac/service/request.h"
#include "qac/service/server.h"
#include "qac/service/wire.h"
#include "qac/util/logging.h"

namespace qac::service {
namespace {

namespace fs = std::filesystem;

const char *kMult2 = R"(
module mult2 (A, B, C);
  input [1:0] A, B;
  output [3:0] C;
  assign C = A * B;
endmodule
)";

const char *kXor = R"(
module xo (a, b, y);
  input a, b;
  output y;
  assign y = a ^ b;
endmodule
)";

core::CompileResult
compileSource(const char *src, const char *top)
{
    core::CompileOptions co;
    co.verilogOpts().top = top;
    return core::compile(src, co);
}

/** Unique per-process scratch path (sockets, .qo files). */
std::string
scratchPath(const std::string &stem)
{
    return (fs::temp_directory_path() /
            (stem + "." + std::to_string(::getpid())))
        .string();
}

SampleRequest
mult2Request(uint64_t seed = 7, uint64_t request_id = 0)
{
    SampleRequest req;
    req.solver = "sa";
    req.common.num_reads = 32;
    req.common.seed = seed;
    req.sweeps = 64;
    req.request_id = request_id;
    req.pins = {"C[3:0] := 0110"};
    return req;
}

// ---- wire codecs ----

TEST(Wire, FrameRoundTrip)
{
    std::string body = "hello, annealer";
    std::string frame = encodeFrame(FrameKind::Request, body);

    FrameKind kind{};
    ErrorCode code = ErrorCode::Ok;
    auto decoded = decodeFrame(frame, &kind, &code);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(kind, FrameKind::Request);
    EXPECT_EQ(code, ErrorCode::Ok);
    EXPECT_EQ(*decoded, body);
}

TEST(Wire, CorruptionIsTyped)
{
    std::string frame = encodeFrame(FrameKind::Result, "payload");
    FrameKind kind{};
    ErrorCode code = ErrorCode::Ok;

    // Flip a payload byte: checksum mismatch, same code a torn .qo
    // file reports.
    std::string bad = frame;
    bad[bad.size() - 1] ^= 0x40;
    EXPECT_FALSE(decodeFrame(bad, &kind, &code).has_value());
    EXPECT_EQ(code, ErrorCode::ChecksumMismatch);

    // Wrong magic.
    bad = frame;
    bad[0] = 'X';
    EXPECT_FALSE(decodeFrame(bad, &kind, &code).has_value());
    EXPECT_EQ(code, ErrorCode::BadMagic);

    // Truncations at both layers.
    EXPECT_FALSE(
        decodeFrame(std::string_view(frame).substr(0, 10), &kind,
                    &code)
            .has_value());
    EXPECT_EQ(code, ErrorCode::TruncatedHeader);
    EXPECT_FALSE(
        decodeFrame(std::string_view(frame).substr(0, frame.size() - 2),
                    &kind, &code)
            .has_value());
    EXPECT_EQ(code, ErrorCode::TruncatedPayload);
}

TEST(Wire, HelloRoundTrip)
{
    Hello hello;
    hello.server = "qmad test";
    hello.solvers = {"exact", "sa"};
    hello.queue_depth = 33;
    hello.max_loaded = 4;
    ObjectInfo info;
    info.digest = "abc123";
    info.name = "mult2";
    info.logical_vars = 12;
    info.logical_terms = 30;
    info.embedded = true;
    hello.objects.push_back(info);

    Hello parsed;
    ASSERT_TRUE(parseHello(encodeHello(hello), parsed));
    EXPECT_EQ(parsed.protocol, kProtocolVersion);
    EXPECT_EQ(parsed.server, "qmad test");
    EXPECT_EQ(parsed.solvers, hello.solvers);
    EXPECT_EQ(parsed.queue_depth, 33u);
    EXPECT_EQ(parsed.max_loaded, 4u);
    ASSERT_EQ(parsed.objects.size(), 1u);
    EXPECT_EQ(parsed.objects[0].digest, "abc123");
    EXPECT_EQ(parsed.objects[0].name, "mult2");
    EXPECT_EQ(parsed.objects[0].logical_vars, 12u);
    EXPECT_TRUE(parsed.objects[0].embedded);
}

TEST(Wire, ErrorFrameRoundTripAndNames)
{
    ErrorFrame err;
    err.request_id = 42;
    err.code = ErrorCode::QueueFull;
    err.message = "queue at capacity";

    ErrorFrame parsed;
    ASSERT_TRUE(parseError(encodeError(err), parsed));
    EXPECT_EQ(parsed.request_id, 42u);
    EXPECT_EQ(parsed.code, ErrorCode::QueueFull);
    EXPECT_EQ(parsed.message, "queue at capacity");

    // Frame-integrity codes share artifact's names; service codes get
    // their own.
    EXPECT_STREQ(errorCodeName(ErrorCode::ChecksumMismatch),
                 artifact::frameErrorName(
                     artifact::FrameError::ChecksumMismatch));
    EXPECT_STRNE(errorCodeName(ErrorCode::QueueFull),
                 errorCodeName(ErrorCode::Draining));
}

TEST(Wire, RequestCodecRoundTrip)
{
    SampleRequest req = mult2Request(99, 3);
    req.object_digest = "deadbeef";
    req.solver = "exact";
    req.use_physical = true;
    req.reduce = false;

    SampleRequest parsed;
    ASSERT_TRUE(parseRequest(serializeRequest(req), parsed));
    EXPECT_EQ(parsed.object_digest, "deadbeef");
    EXPECT_EQ(parsed.pins, req.pins);
    EXPECT_EQ(parsed.solver, "exact");
    EXPECT_EQ(parsed.common.num_reads, req.common.num_reads);
    EXPECT_EQ(parsed.common.seed, 99u);
    EXPECT_EQ(parsed.sweeps, req.sweeps);
    EXPECT_TRUE(parsed.use_physical);
    EXPECT_FALSE(parsed.reduce);
    EXPECT_EQ(parsed.request_id, 3u);

    // The payload ends in three reserved telemetry fields (u8, u32,
    // u32) that older clients could fill in; they are read and
    // ignored.
    std::string older = serializeRequest(req);
    older[older.size() - 9] = 1;
    older[older.size() - 8] = 2;
    older[older.size() - 4] = 64;
    SampleRequest parsed_older;
    ASSERT_TRUE(parseRequest(older, parsed_older));
    EXPECT_EQ(serializeRequest(parsed_older), serializeRequest(req));

    SampleRequest garbage;
    EXPECT_FALSE(parseRequest("not a request", garbage));
}

TEST(Wire, DefaultRequestBytesAreStable)
{
    // The request layout is a promise between `qma client` and qmad
    // builds of any age: a default request must keep serializing to
    // exactly these bytes, including the three reserved telemetry
    // fields (u8 0, u32 1, u32 256) that no server reads.
    const std::string bytes = serializeRequest(SampleRequest{});
    std::string hex;
    for (unsigned char c : bytes)
        hex += format("%02x", c);
    EXPECT_EQ(hex,
              "0000000000000000"  // object_digest: empty string
              "0000000000000000"  // pin count
              "02000000000000007361" // solver "sa"
              "f4010000"          // num_reads 500
              "0100000000000000"  // seed 1
              "00000000"          // threads 0
              "00020000"          // sweeps 512
              "00" "01"           // use_physical, reduce
              "0000000000000000"  // request_id 0
              "00" "01000000" "00010000"); // reserved telemetry
}

TEST(Wire, OlderPayloadTrailingByteIsIgnored)
{
    // Older clients append one byte that chose the SA kernel path
    // (0 auto, 1 on, 2 off); SA now picks its path from the read
    // count, so the byte changes neither the request nor its result.
    core::Executable exe(compileSource(kMult2, "mult2"));
    const std::string payload = serializeRequest(mult2Request(13));
    SampleRequest current;
    ASSERT_TRUE(parseRequest(payload, current));
    const std::string want = serializeResult(runLocal(exe, current));

    for (char mode : {'\0', '\1', '\2'}) {
        SCOPED_TRACE(static_cast<int>(mode));
        SampleRequest older;
        ASSERT_TRUE(parseRequest(payload + mode, older));
        EXPECT_EQ(serializeRequest(older), payload);
        EXPECT_EQ(serializeResult(runLocal(exe, older)), want);
    }

    std::string err;
    SampleRequest two;
    EXPECT_FALSE(parseRequest(payload + std::string(2, '\0'), two, &err));
    EXPECT_EQ(err, "malformed request payload");
}

// ---- replay contract ----

TEST(Replay, RequestIdZeroIsIdentity)
{
    EXPECT_EQ(requestSeed(1234, 0), 1234u);
    EXPECT_NE(requestSeed(1234, 1), 1234u);
    EXPECT_NE(requestSeed(1234, 1), requestSeed(1234, 2));
    // Pure function: same pair, same stream.
    EXPECT_EQ(requestSeed(1234, 17), requestSeed(1234, 17));
}

TEST(Replay, SameSeedAndIdReproduceBytes)
{
    core::Executable exe(compileSource(kMult2, "mult2"));

    SampleRequest req = mult2Request(11, 5);
    std::string a = serializeResult(runLocal(exe, req));
    std::string b = serializeResult(runLocal(exe, req));
    EXPECT_EQ(a, b);

    // A different id selects an unrelated stream family.
    req.request_id = 6;
    EXPECT_NE(serializeResult(runLocal(exe, req)), a);

    // Id 0 with the pre-derived seed samples identically: the replay
    // handle is nothing but a seed derivation.  (The serialized
    // results still differ — they echo the request id and manifest —
    // so compare with those provenance fields normalized away.)
    auto samplesOnly = [](const std::string &bytes) {
        SampleResult res;
        EXPECT_TRUE(parseResult(bytes, res));
        res.request_id = 0;
        res.manifest_json.clear();
        return serializeResult(res);
    };
    SampleRequest plain = mult2Request(requestSeed(11, 5), 0);
    EXPECT_EQ(samplesOnly(serializeResult(runLocal(exe, plain))),
              samplesOnly(a));
}

TEST(Replay, ThreadCountNeverChangesBytes)
{
    core::Executable exe(compileSource(kMult2, "mult2"));
    SampleRequest req = mult2Request(21, 2);
    req.common.threads = 1;
    std::string one = serializeResult(runLocal(exe, req));
    req.common.threads = 8;
    EXPECT_EQ(serializeResult(runLocal(exe, req)), one);
}

// ---- object store ----

TEST(ObjectStore, LruEvictionUnderResidencyCap)
{
    auto mult = compileSource(kMult2, "mult2");
    auto xo = compileSource(kXor, "xo");
    std::string mult_path = scratchPath("qac-store-mult.qo");
    std::string xor_path = scratchPath("qac-store-xor.qo");
    std::string err;
    ASSERT_TRUE(artifact::writeQoFile(mult_path, mult, &err)) << err;
    ASSERT_TRUE(artifact::writeQoFile(xor_path, xo, &err)) << err;

    StoreOptions opts;
    opts.max_loaded = 1;
    ObjectStore store(opts);
    auto mult_digest = store.registerFile(mult_path);
    auto xor_digest = store.registerFile(xor_path);
    ASSERT_TRUE(mult_digest && xor_digest);
    EXPECT_EQ(store.registered(), 2u);
    EXPECT_EQ(store.loadedCount(), 0u); // registration stays cold
    EXPECT_TRUE(store.knows(*mult_digest));
    EXPECT_FALSE(store.knows("no-such-digest"));

    // Load A, then B: the cap is one, so B evicts A.
    auto a = store.acquire(*mult_digest);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(store.loadedCount(), 1u);
    ErrorCode bcode = ErrorCode::Ok;
    std::string berr;
    auto b = store.acquire(*xor_digest, &bcode, &berr);
    ASSERT_NE(b, nullptr) << errorCodeName(bcode) << ": " << berr;
    EXPECT_EQ(store.loadedCount(), 1u);
    EXPECT_EQ(store.evictions(), 1u);

    // The evicted handle stays valid (shared ownership), and
    // re-acquiring A is a miss that reloads from disk.
    EXPECT_GT(a->compiled().stats.logical_vars, 0u);
    auto a2 = store.acquire(*mult_digest);
    ASSERT_NE(a2, nullptr);
    EXPECT_EQ(store.misses(), 3u);
    EXPECT_EQ(store.evictions(), 2u);

    // A warm re-acquire is a hit.
    uint64_t hits = store.hits();
    EXPECT_NE(store.acquire(*mult_digest), nullptr);
    EXPECT_EQ(store.hits(), hits + 1);

    ErrorCode code = ErrorCode::Ok;
    EXPECT_EQ(store.acquire("no-such-digest", &code), nullptr);
    EXPECT_EQ(code, ErrorCode::UnknownObject);

    fs::remove(mult_path);
    fs::remove(xor_path);
}

TEST(ObjectStore, RegisterResultIsPinned)
{
    StoreOptions opts;
    opts.max_loaded = 1;
    ObjectStore store(opts);
    std::string pinned =
        store.registerResult(compileSource(kMult2, "mult2"), "mult2");

    auto mult = compileSource(kXor, "xo");
    std::string path = scratchPath("qac-store-pin.qo");
    std::string err;
    ASSERT_TRUE(artifact::writeQoFile(path, mult, &err)) << err;
    auto other = store.registerFile(path);
    ASSERT_TRUE(other);

    // Loading the file object cannot evict the in-memory one: it has
    // no backing path to reload from.
    EXPECT_NE(store.acquire(*other), nullptr);
    EXPECT_NE(store.acquire(pinned), nullptr);
    EXPECT_EQ(store.evictions(), 0u);

    auto infos = store.list();
    ASSERT_EQ(infos.size(), 2u);
    fs::remove(path);
}

// ---- service core ----

/** Run @p reqs through a core with the given knobs; returns the
 *  serialized result bytes in submit order. */
std::vector<std::string>
runThroughCore(ObjectStore &store, const std::string &digest,
               std::vector<SampleRequest> reqs, size_t max_batch,
               uint32_t threads)
{
    CoreOptions opts;
    opts.max_batch = max_batch;
    opts.autostart = false; // queue first: forces coalescing
    ServiceCore core(store, opts);

    std::vector<std::string> out(reqs.size());
    std::atomic<size_t> done{0};
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].object_digest = digest;
        reqs[i].common.threads = threads;
        ErrorCode admitted = core.submit(
            reqs[i], [&out, &done, i](ErrorCode code,
                                      const SampleResult *res,
                                      const std::string &) {
                if (code == ErrorCode::Ok)
                    out[i] = serializeResult(*res);
                done.fetch_add(1);
            });
        EXPECT_EQ(admitted, ErrorCode::Ok);
    }
    core.start();
    core.drain();
    EXPECT_EQ(done.load(), reqs.size());
    return out;
}

TEST(ServiceCore, BatchedMatchesUnbatchedAtAnyThreadCount)
{
    ObjectStore store;
    std::string digest =
        store.registerResult(compileSource(kMult2, "mult2"), "mult2");

    // Eight requests with distinct replay ids against one object.
    std::vector<SampleRequest> reqs;
    for (uint64_t id = 1; id <= 8; ++id)
        reqs.push_back(mult2Request(7, id));

    auto batched1 = runThroughCore(store, digest, reqs, 16, 1);
    auto solo1 = runThroughCore(store, digest, reqs, 1, 1);
    auto batched8 = runThroughCore(store, digest, reqs, 16, 8);
    EXPECT_EQ(batched1, solo1);
    EXPECT_EQ(batched8, solo1);
    for (const auto &bytes : solo1)
        EXPECT_FALSE(bytes.empty());

    // Distinct ids must not have collapsed to one stream.
    EXPECT_NE(solo1[0], solo1[1]);
}

TEST(ServiceCore, CountsBatchedRequests)
{
    ObjectStore store;
    std::string digest =
        store.registerResult(compileSource(kXor, "xo"), "xo");

    CoreOptions opts;
    opts.max_batch = 4;
    opts.autostart = false;
    ServiceCore core(store, opts);
    std::atomic<size_t> done{0};
    for (uint64_t id = 1; id <= 4; ++id) {
        SampleRequest req = mult2Request(3, id);
        req.pins.clear();
        req.object_digest = digest;
        ASSERT_EQ(core.submit(req,
                              [&done](ErrorCode, const SampleResult *,
                                      const std::string &) {
                                  done.fetch_add(1);
                              }),
                  ErrorCode::Ok);
    }
    core.start();
    core.drain();
    EXPECT_EQ(done.load(), 4u);
    EXPECT_EQ(core.completed(), 4u);
    EXPECT_EQ(core.batches(), 1u);
    EXPECT_EQ(core.batchedRequests(), 4u);
}

TEST(ServiceCore, QueueFullIsTypedAndCallbackFree)
{
    ObjectStore store;
    std::string digest =
        store.registerResult(compileSource(kXor, "xo"), "xo");

    CoreOptions opts;
    opts.queue_depth = 2;
    opts.autostart = false; // nothing drains: the queue must fill
    ServiceCore core(store, opts);

    auto accepted = [](ErrorCode, const SampleResult *,
                       const std::string &) {};
    SampleRequest req = mult2Request();
    req.pins.clear();
    req.object_digest = digest;
    EXPECT_EQ(core.submit(req, accepted), ErrorCode::Ok);
    EXPECT_EQ(core.submit(req, accepted), ErrorCode::Ok);

    // Third submit: typed backpressure, and the callback must not be
    // retained (we prove it by watching a shared_ptr's use count).
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    EXPECT_EQ(core.submit(req,
                          [token](ErrorCode, const SampleResult *,
                                  const std::string &) {}),
              ErrorCode::QueueFull);
    token.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(core.queued(), 2u);

    // Bad names are rejected synchronously too, before queueing.
    SampleRequest bad = req;
    bad.solver = "no-such-solver";
    EXPECT_EQ(core.submit(bad, accepted), ErrorCode::UnknownSolver);
    bad = req;
    bad.object_digest = "no-such-object";
    EXPECT_EQ(core.submit(bad, accepted), ErrorCode::UnknownObject);

    core.start();
    core.drain();
    EXPECT_EQ(core.completed(), 2u);
    EXPECT_EQ(core.submit(req, accepted), ErrorCode::Draining);
}

// ---- loopback server/client ----

class LoopbackTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        socket_path_ = scratchPath("qac-service-test.sock");
        ServerOptions opts;
        opts.socket_path = socket_path_;
        opts.core.max_batch = 4;
        server_ = std::make_unique<Server>(std::move(opts));
        digest_ = server_->store().registerResult(
            compileSource(kMult2, "mult2"), "mult2");
        std::string error;
        ASSERT_TRUE(server_->listen(&error)) << error;
    }

    void TearDown() override
    {
        server_.reset(); // destructor drains
        fs::remove(socket_path_);
    }

    std::string socket_path_;
    std::string digest_;
    std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, HelloAdvertisesCapabilities)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(socket_path_, &error)) << error;

    const Hello &hello = client.hello();
    EXPECT_EQ(hello.protocol, kProtocolVersion);
    ASSERT_EQ(hello.objects.size(), 1u);
    EXPECT_EQ(hello.objects[0].digest, digest_);
    EXPECT_EQ(hello.objects[0].name, "mult2");
    EXPECT_GT(hello.objects[0].logical_vars, 0u);
    EXPECT_FALSE(hello.solvers.empty());
    EXPECT_TRUE(client.ping(&error)) << error;
}

TEST_F(LoopbackTest, RoundTripMatchesLocalRun)
{
    Client client;
    ASSERT_TRUE(client.connect(socket_path_));

    SampleRequest req = mult2Request(7, 0);
    req.object_digest = digest_;

    SampleResult remote;
    std::string error;
    ASSERT_EQ(client.call(req, &remote, &error), ErrorCode::Ok)
        << error;

    // The acceptance criterion: remote bytes == local bytes.
    auto exe = server_->store().acquire(digest_);
    ASSERT_NE(exe, nullptr);
    SampleResult local = runLocal(*exe, req);
    EXPECT_EQ(serializeResult(remote), serializeResult(local));
    EXPECT_TRUE(remote.hasValid());
    EXPECT_FALSE(remote.manifest_json.empty());
}

TEST_F(LoopbackTest, TypedErrorFrames)
{
    Client client;
    ASSERT_TRUE(client.connect(socket_path_));

    SampleRequest req = mult2Request();
    req.object_digest = "no-such-digest";
    SampleResult res;
    std::string error;
    EXPECT_EQ(client.call(req, &res, &error),
              ErrorCode::UnknownObject);
    EXPECT_FALSE(error.empty());

    req.object_digest = digest_;
    req.solver = "no-such-solver";
    EXPECT_EQ(client.call(req, &res, &error),
              ErrorCode::UnknownSolver);

    // The connection survives typed rejections.
    req.solver = "sa";
    EXPECT_EQ(client.call(req, &res, &error), ErrorCode::Ok) << error;
}

TEST_F(LoopbackTest, DrainCompletesPipelinedRequests)
{
    Client client;
    ASSERT_TRUE(client.connect(socket_path_));

    // Pipeline eight requests without reading a single reply, wait
    // for the core to finish them all, then drain.  The drain must
    // flush every unread reply before the connection closes — replies
    // to accepted requests are never dropped.
    const size_t n = 8;
    for (uint64_t id = 1; id <= n; ++id) {
        SampleRequest req = mult2Request(7, id);
        req.object_digest = digest_;
        ASSERT_TRUE(client.send(req));
    }
    while (server_->core().completed() < n)
        std::this_thread::yield();
    server_->drain();

    // Every accepted request must still produce its reply.
    for (size_t i = 0; i < n; ++i) {
        SampleResult res;
        std::string error;
        EXPECT_EQ(client.receive(&res, &error), ErrorCode::Ok)
            << error;
        EXPECT_GE(res.request_id, 1u);
        EXPECT_LE(res.request_id, n);
    }
    SampleResult res;
    EXPECT_EQ(client.receive(&res), ErrorCode::Disconnected);

    // A connection after drain is refused or immediately closed.
    Client late;
    std::string error;
    EXPECT_FALSE(late.connect(socket_path_, &error));
}

} // namespace
} // namespace qac::service
