/**
 * @file
 * The service probe of the traced sample run: an open loop of QSVC
 * requests at a fixed offered rate against an in-process
 * service::Server on a unix socket.  One generator thread sends each
 * request at its scheduled time over one of four connections; one
 * receiver per connection timestamps the replies.  Latency runs from
 * the scheduled send time to the reply, so a stall also charges the
 * requests queued behind it.
 *
 * This was a timed workload of its own, but its latency quantiles
 * moved by 14-36% (interquartile range over median) between runs on
 * the reference host, more than any bound can absorb; it now reports
 * per-layer metrics only (perfbench/README.md).
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "hooks.h"
#include "programs.h"
#include "qac/artifact/qo.h"
#include "qac/service/client.h"
#include "qac/service/server.h"
#include "qac/util/strings.h"

namespace qacbench {

using namespace qac;
namespace fs = std::filesystem;

namespace {

/** Offered load: about a sixth of one core's capacity for this mix. */
constexpr double kRateRps = 80.0;
constexpr size_t kConnections = 4;
/** Fewer resident objects than registered, so requests reload .qo. */
constexpr size_t kMaxLoaded = 4;
/** Every kCheckEvery-th reply is compared byte for byte with runLocal. */
constexpr size_t kCheckEvery = 10;

struct ServedObject
{
    std::string digest;
    std::string bytes; ///< the .qo file
    std::vector<std::string> pins; ///< pin directives requests may use
    std::shared_ptr<core::Executable> local; ///< reference executor
};

struct ServeState
{
    std::string dir;
    std::vector<ServedObject> objects;
    std::unique_ptr<service::Server> server;
    std::vector<std::unique_ptr<service::Client>> clients;

    ~ServeState()
    {
        clients.clear();
        server.reset();
        if (!dir.empty())
            fs::remove_all(dir);
    }
};

std::string
bits(uint64_t value, unsigned width)
{
    std::string s;
    for (unsigned b = width; b-- > 0;)
        s += (value >> b) & 1 ? '1' : '0';
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::unique_ptr<ServeState>
setUpServe(const Args &args)
{
    auto s = std::make_unique<ServeState>();
    s->dir = args.work_dir + "/serve";
    fs::remove_all(s->dir);
    fs::create_directories(s->dir);

    std::vector<std::pair<Program, std::vector<std::string>>> set = {
        {multiplier(4), {}},
        {multiplier(3), {}},
        {circuitSat(), {"y := true"}},
        {australia(), {"valid := true"}},
        {muxAddSub(), {}},
        {counter(), {""}},
    };
    // Multipliers run backward from a product; mux add/sub from a sum.
    for (uint64_t a = 2; a < 16; a += 3)
        for (uint64_t b = 3; b < 16; b += 4) {
            set[0].second.push_back("C[7:0] := " + bits(a * b, 8));
            set[1].second.push_back("C[5:0] := " +
                                    bits((a & 7) * (b & 7), 6));
        }
    for (uint64_t y = 0; y < 16; y += 3)
        set[4].second.push_back("Y[3:0] := " + bits(y, 4));

    service::ServerOptions so;
    so.socket_path = s->dir + "/qmad.sock";
    so.store.max_loaded = kMaxLoaded;
    so.core.threads = 1;
    s->server = std::make_unique<service::Server>(so);
    for (auto &[prog, pins] : set) {
        ServedObject obj;
        obj.pins = pins;
        const std::string path = s->dir + "/" + prog.name + ".qo";
        std::string error;
        if (!artifact::writeQoFile(
                path, core::compile(prog.source, prog.opts), &error))
            fatal("writing %s: %s", path.c_str(), error.c_str());
        auto digest = s->server->store().registerFile(path, &error);
        if (!digest)
            fatal("registering %s: %s", path.c_str(), error.c_str());
        obj.digest = *digest;
        obj.bytes = readFile(path);
        obj.local = std::make_shared<core::Executable>(
            *artifact::deserializeQo(obj.bytes));
        s->objects.push_back(std::move(obj));
    }
    std::string error;
    if (!s->server->listen(&error))
        fatal("listen on %s: %s", so.socket_path.c_str(), error.c_str());
    for (size_t c = 0; c < kConnections; ++c) {
        auto client = std::make_unique<service::Client>();
        if (!client->connect(so.socket_path, &error))
            fatal("connect: %s", error.c_str());
        s->clients.push_back(std::move(client));
    }
    return s;
}

/**
 * The seeded request mix, short sweeps (64 or 128).  One request in
 * three is small (1-7 reads, the per-read SA path), two are packed
 * (16-64 reads); every object gets one request in six.  Both shares
 * are exact within each block, in a seeded order, so the latency
 * quantiles do not move with how a seed happens to split the mix.
 */
std::vector<service::SampleRequest>
requestMix(const ServeState &s, uint64_t seed, size_t count,
           const std::string &solver)
{
    std::mt19937_64 rng(mixSeed(seed, 6));
    std::vector<size_t> objects(s.objects.size());
    std::vector<char> small = {1, 0, 0};
    std::vector<service::SampleRequest> reqs(count);
    for (size_t i = 0; i < count; ++i) {
        if (i % objects.size() == 0) {
            std::iota(objects.begin(), objects.end(), 0);
            std::shuffle(objects.begin(), objects.end(), rng);
        }
        if (i % small.size() == 0)
            std::shuffle(small.begin(), small.end(), rng);
        const ServedObject &obj = s.objects[objects[i % objects.size()]];
        auto &r = reqs[i];
        r.object_digest = obj.digest;
        const std::string &pin = obj.pins[rng() % obj.pins.size()];
        if (!pin.empty())
            r.pins = {pin};
        r.solver = solver;
        r.common.num_reads = static_cast<uint32_t>(
            small[i % small.size()] ? 1 + rng() % 7 : 16 + rng() % 49);
        r.common.threads = 1;
        r.common.seed = seed;
        r.sweeps = rng() & 1 ? 64 : 128;
        r.request_id = i + 1;
    }
    return reqs;
}

struct LoopResult
{
    std::vector<double> latency_ms; ///< successful replies only
    std::vector<double> late_ms;
    uint64_t sent = 0, failed = 0;
    /** Replies kept for the byte comparison, by request index. */
    std::map<size_t, service::SampleResult> kept;
};

LoopResult
openLoop(ServeState &s, const std::vector<service::SampleRequest> &reqs,
         Outcome &out)
{
    const size_t n = reqs.size();
    LoopResult res;
    std::vector<Clock::time_point> due(n), replied(n);
    std::vector<char> ok(n, 0);
    std::vector<service::SampleResult> kept(n);
    std::vector<size_t> per_conn(kConnections, 0);
    for (size_t i = 0; i < n; ++i)
        ++per_conn[i % kConnections];
    std::mutex fail_mu;

    std::vector<std::thread> receivers;
    for (size_t c = 0; c < kConnections; ++c)
        receivers.emplace_back([&, c] {
            for (size_t k = 0; k < per_conn[c]; ++k) {
                service::SampleResult r;
                std::string error;
                auto code = s.clients[c]->receive(&r, &error);
                auto now = Clock::now();
                if (code != service::ErrorCode::Ok) {
                    std::lock_guard<std::mutex> lock(fail_mu);
                    out.fail("serve: error reply: " + error);
                    if (code == service::ErrorCode::Disconnected)
                        return;
                    continue;
                }
                size_t i = r.request_id - 1;
                if (i >= n)
                    continue;
                replied[i] = now;
                ok[i] = r.total_reads == reqs[i].common.num_reads;
                if (i % kCheckEvery == 0)
                    kept[i] = std::move(r);
            }
        });

    auto t0 = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / kRateRps);
    for (size_t i = 0; i < n; ++i) {
        due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          period * static_cast<double>(i));
        std::this_thread::sleep_until(due[i]);
        res.late_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due[i])
                .count());
        std::string error;
        if (!s.clients[i % kConnections]->send(reqs[i], &error)) {
            std::lock_guard<std::mutex> lock(fail_mu);
            out.fail("serve: send: " + error);
        }
        ++res.sent;
    }
    for (auto &t : receivers)
        t.join();
    for (size_t i = 0; i < n; ++i) {
        if (!ok[i]) {
            ++res.failed;
            continue;
        }
        res.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(replied[i] - due[i])
                .count());
        if (i % kCheckEvery == 0)
            res.kept[i] = std::move(kept[i]);
    }
    return res;
}

const ServedObject &
objectFor(const ServeState &s, const service::SampleRequest &req)
{
    for (const auto &obj : s.objects)
        if (obj.digest == req.object_digest)
            return obj;
    fatal("no object %s", req.object_digest.c_str());
}

/** Compare kept replies with runLocal on the same (seed, request id);
 *  returns the number of mismatches. */
uint64_t
checkReplies(const ServeState &s,
             const std::vector<service::SampleRequest> &reqs,
             const LoopResult &res, Outcome &out)
{
    uint64_t bad = 0;
    for (const auto &[i, reply] : res.kept) {
        const auto &obj = objectFor(s, reqs[i]);
        auto want = service::serializeResult(
            service::runLocal(*obj.local, reqs[i]));
        if (service::serializeResult(reply) != want) {
            out.fail(format("serve: reply to request %zu differs from "
                            "runLocal",
                            i + 1));
            ++bad;
        }
    }
    return bad;
}

void
traceServe(const Args &args, ServeState &s, Outcome &out)
{
    const size_t half =
        static_cast<size_t>(kRateRps * args.seconds / 2) + 1;
    auto plain_reqs = requestMix(s, args.seed, half, "sa");
    LoopResult plain = openLoop(s, plain_reqs, out);
    out.attempted += plain.sent;
    out.failed += plain.failed + checkReplies(s, plain_reqs, plain, out);

    SamplerHook &hook = samplerHook();
    hook.spans.clear();
    stats::Registry::global().reset();
    stats::Registry::global().setEnabled(true);
    auto traced_reqs = requestMix(s, mixSeed(args.seed, 7), half,
                                  "qacbench.sa");
    LoopResult traced = openLoop(s, traced_reqs, out);
    stats::Registry::global().setEnabled(false);
    out.attempted += traced.sent;
    out.failed += traced.failed;

    const double hits = registryCount("service.store.hit");
    const double misses = registryCount("service.store.miss");
    out.set("service.store_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out.set("service.batch_size.mean",
            registryValue("service.batch_size"), "count");
    out.set("anneal.small_reads_ms",
            hook.spans.medianMs("anneal.sample.small"), "ms");
    out.set("anneal.packed_reads_ms",
            hook.spans.medianMs("anneal.sample.packed"), "ms");

    // Per-request split for the kept subset of the untraced half: run
    // time, codec time, and the rest of the round trip.
    std::vector<double> run_ms, wire_ms;
    for (const auto &[i, reply] : plain.kept) {
        const auto &req = plain_reqs[i];
        const auto &obj = objectFor(s, req);
        auto t0 = Clock::now();
        service::SampleResult local = service::runLocal(*obj.local, req);
        run_ms.push_back(msSince(t0));
        t0 = Clock::now();
        service::SampleRequest req2;
        service::SampleResult res2;
        bool parsed =
            service::parseRequest(service::serializeRequest(req), req2) &&
            service::parseResult(service::serializeResult(local), res2);
        wire_ms.push_back(msSince(t0));
        if (!parsed)
            out.fail("serve: wire codec round trip failed");
    }
    out.set("service.run_ms", median(run_ms), "ms");
    out.set("service.wire_ms", median(wire_ms), "ms");
    out.set("service.queue_ms",
            quantile(plain.latency_ms, 0.5) - median(run_ms) -
                median(wire_ms),
            "ms");
    out.set("request_ms.p99", quantile(plain.latency_ms, 0.99), "ms");
    out.set("serve.late_ms.p99", quantile(plain.late_ms, 0.99), "ms");

    // The .qo codec; a load includes the stored EDIF's re-parse.
    std::vector<double> ser_ms, load_ms;
    double bytes = 0;
    for (const auto &obj : s.objects) {
        bytes += static_cast<double>(obj.bytes.size());
        for (int k = 0; k < 5; ++k) {
            auto t0 = Clock::now();
            auto res = artifact::deserializeQo(obj.bytes);
            load_ms.push_back(msSince(t0));
            t0 = Clock::now();
            artifact::serializeQo(*res);
            ser_ms.push_back(msSince(t0));
        }
    }
    out.set("artifact.qo_serialize_ms", median(ser_ms), "ms");
    out.set("artifact.qo_load_ms", median(load_ms), "ms");
    out.set("artifact.qo_bytes", bytes, "bytes");
}

} // namespace

void
traceService(const Args &args, Outcome &out)
{
    registerTimedSamplers();
    out.provenance["serve_rate_rps"] = format("%g", kRateRps);
    out.provenance["serve_connections"] = format("%zu", kConnections);
    std::unique_ptr<ServeState> s = setUpServe(args);
    traceServe(args, *s, out);
}

} // namespace qacbench
