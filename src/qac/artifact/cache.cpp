#include "qac/artifact/cache.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "qac/artifact/serial.h"
#include "qac/stats/registry.h"
#include "qac/util/hash.h"
#include "qac/util/logging.h"

namespace fs = std::filesystem;

namespace qac::artifact {

namespace {

constexpr char kEntryMagic[4] = {'Q', 'A', 'C', 'E'};

void
hashModel(util::Hasher &h, const ising::IsingModel &m)
{
    h.u64(m.numVars());
    for (size_t i = 0; i < m.numVars(); ++i) {
        double v = m.linear(static_cast<uint32_t>(i));
        h.f64(v == 0.0 ? 0.0 : v);
    }
    auto terms = m.sortedQuadraticTerms();
    h.u64(terms.size());
    for (const auto &t : terms) {
        h.u32(t.i);
        h.u32(t.j);
        h.f64(t.value == 0.0 ? 0.0 : t.value);
    }
}

void
hashHardware(util::Hasher &h, const chimera::HardwareGraph &hw)
{
    h.u64(hw.numNodes());
    for (size_t u = 0; u < hw.numNodes(); ++u)
        if (!hw.isActive(static_cast<uint32_t>(u)))
            h.u32(static_cast<uint32_t>(u));
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (size_t u = 0; u < hw.numNodes(); ++u)
        for (uint32_t v : hw.neighbors(static_cast<uint32_t>(u)))
            if (v > u)
                edges.emplace_back(static_cast<uint32_t>(u), v);
    std::sort(edges.begin(), edges.end());
    h.u64(edges.size());
    for (const auto &[u, v] : edges) {
        h.u32(u);
        h.u32(v);
    }
}

/**
 * A walk deletes a temp file whose mtime is older than this: its
 * writer crashed between write and rename.  Younger ones may still be
 * in flight.
 */
constexpr int64_t kOrphanTempAgeS = 3600;

/**
 * In-flight writes are "<name>.tmp.<pid>.<n>"; eviction never counts
 * them and deletes only orphans (kOrphanTempAgeS).
 */
bool
isTempFile(const fs::path &p)
{
    return p.filename().native().find(".tmp.") != std::string::npos;
}

} // namespace

/**
 * Process-wide running size of one cache directory, shared by every
 * Cache opened on it (core::compile builds a fresh Cache per compile).
 * Exact while this process is the only writer; the walk every
 * max_bytes/8 of stores catches up with everyone else's writes.
 */
struct Cache::Ledger
{
    std::mutex mu;
    bool synced = false; ///< a walk has counted the directory
    uint64_t bytes = 0;
    uint64_t stored_since_walk = 0;
};

Cache::Ledger &
Cache::ledgerFor(const std::string &dir)
{
    static std::mutex mu;
    // Never destroyed: a Cache may outlive static destruction order.
    static auto *ledgers = new std::map<std::string, Ledger>();
    std::error_code ec;
    fs::path key = fs::canonical(dir, ec);
    std::lock_guard<std::mutex> lock(mu);
    return (*ledgers)[ec ? dir : key.string()];
}

std::string
defaultCacheDir()
{
    if (const char *dir = std::getenv("QAC_CACHE_DIR"); dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/qac";
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/qac";
    return ".qac-cache";
}

Cache::Cache(const CacheOptions &opts)
    : enabled_(opts.enabled),
      dir_(opts.dir.empty() ? defaultCacheDir() : opts.dir),
      max_bytes_(opts.max_bytes)
{
    if (!enabled_)
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        warn("cache: cannot create '%s' (%s); caching disabled",
             dir_.c_str(), ec.message().c_str());
        enabled_ = false;
        return;
    }
    ledger_ = &ledgerFor(dir_);
}

std::optional<std::string>
Cache::load(const std::string &name)
{
    if (!enabled_)
        return std::nullopt;
    fs::path path = fs::path(dir_) / name;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof())
        return std::nullopt;
    // Refresh the LRU clock so hot entries outlive eviction.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return ss.str();
}

bool
Cache::store(const std::string &name, std::string_view bytes)
{
    if (!enabled_)
        return false;
    fs::path path = fs::path(dir_) / name;
    // Unique per write, so concurrent stores of one entry never share
    // a temp file.
    static std::atomic<uint64_t> tmp_seq{0};
    fs::path tmp = path;
    tmp += format(".tmp.%d.%llu", static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(tmp_seq++));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(bytes.data(),
                       static_cast<std::streamsize>(bytes.size()))) {
            warn("cache: cannot write '%s'", tmp.string().c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    Ledger &l = *ledger_;
    std::lock_guard<std::mutex> lock(l.mu);
    // The bytes this store replaces, so a rewrite is not counted twice.
    struct stat st;
    uint64_t replaced = ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)
        ? static_cast<uint64_t>(st.st_size)
        : 0;
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("cache: cannot rename '%s' (%s)", tmp.string().c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
        return false;
    }
    l.bytes = l.bytes - std::min(l.bytes, replaced) + bytes.size();
    l.stored_since_walk += bytes.size();
    if (!l.synced || l.bytes > max_bytes_ ||
        l.stored_since_walk >= max_bytes_ / 8) {
        l.bytes = evict();
        l.synced = true;
        l.stored_since_walk = 0;
    }
    stats::gauge("qac.cache.bytes", l.bytes);
    return true;
}

uint64_t
Cache::evict()
{
    stats::count("qac.cache.walks");
    std::error_code ec;
    struct File
    {
        fs::path path;
        uint64_t size;
        std::pair<int64_t, int64_t> mtime; ///< seconds, nanoseconds
    };
    std::vector<File> files;
    uint64_t total = 0;
    const int64_t orphaned_before =
        static_cast<int64_t>(::time(nullptr)) - kOrphanTempAgeS;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        // One stat per entry: type, size and mtime together.
        struct stat st;
        if (::stat(e.path().c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        if (isTempFile(e.path())) {
            if (st.st_mtim.tv_sec < orphaned_before) {
                std::error_code rec;
                fs::remove(e.path(), rec);
            }
            continue;
        }
        File f{e.path(), static_cast<uint64_t>(st.st_size),
               {st.st_mtim.tv_sec, st.st_mtim.tv_nsec}};
        total += f.size;
        files.push_back(std::move(f));
    }
    if (total <= max_bytes_)
        return total;
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  return a.mtime < b.mtime;
              });
    // Evict an eighth below the cap, so a full cache walks once per
    // max_bytes/8 of stores instead of on every store.
    const uint64_t low_water = max_bytes_ - max_bytes_ / 8;
    for (const auto &f : files) {
        if (total <= low_water)
            break;
        std::error_code rec;
        if (fs::remove(f.path, rec)) {
            total -= f.size;
            stats::count("qac.cache.evict");
        }
    }
    return total;
}

uint64_t
embeddingCacheKey(const ising::IsingModel &logical,
                  const chimera::HardwareGraph &hw,
                  const embed::EmbedParams &params)
{
    util::Hasher h;
    h.u32(kArtifactFormatVersion);
    hashModel(h, logical);
    hashHardware(h, hw);
    h.u64(params.seed);
    h.u32(params.tries);
    h.u32(params.rounds);
    h.f64(params.overuse_base);
    return h.digest();
}

std::string
embeddingEntryName(uint64_t key)
{
    return "emb-" + util::hexDigest(key) + ".qoe";
}

EmbeddingProbe
lookupEmbedding(Cache &cache, uint64_t key,
                const std::vector<std::pair<uint32_t, uint32_t>> &edges,
                const chimera::HardwareGraph &hw)
{
    EmbeddingProbe probe;
    if (!cache.enabled())
        return probe;
    stats::ScopedTimer t("qac.cache.lookup_time");
    std::string name = embeddingEntryName(key);
    auto bytes = cache.load(name);
    if (!bytes) {
        stats::count("qac.cache.miss");
        return probe;
    }
    std::string err;
    auto payload = unframe(*bytes, kEntryMagic, &err);
    if (!payload) {
        warn("cache: entry %s unusable (%s); recomputing embedding",
             name.c_str(), err.c_str());
        stats::count("qac.cache.corrupt");
        stats::count("qac.cache.miss");
        return probe;
    }
    Reader r(*payload);
    bool embeddable = r.u8() != 0;
    embed::Embedding emb;
    if (embeddable) {
        uint64_t chains = r.u64();
        for (uint64_t i = 0; i < chains && r.ok(); ++i) {
            uint64_t len = r.u64();
            if (len * 4 > r.remaining())
                break;
            std::vector<uint32_t> chain;
            chain.reserve(static_cast<size_t>(len));
            for (uint64_t k = 0; k < len && r.ok(); ++k)
                chain.push_back(r.u32());
            emb.chains.push_back(std::move(chain));
        }
    }
    if (!r.ok() || r.remaining() != 0) {
        warn("cache: entry %s malformed; recomputing embedding",
             name.c_str());
        stats::count("qac.cache.corrupt");
        stats::count("qac.cache.miss");
        return probe;
    }
    if (embeddable) {
        // Trust nothing from disk: re-verify the chain map against
        // the problem actually being compiled.
        std::string verr;
        if (!embed::verifyEmbedding(emb, edges, hw, &verr)) {
            warn("cache: entry %s fails verification (%s); "
                 "recomputing embedding",
                 name.c_str(), verr.c_str());
            stats::count("qac.cache.corrupt");
            stats::count("qac.cache.miss");
            return probe;
        }
        probe.embedding = std::move(emb);
    }
    probe.hit = true;
    probe.embeddable = embeddable;
    stats::count("qac.cache.hit");
    return probe;
}

void
storeEmbedding(Cache &cache, uint64_t key,
               const std::optional<embed::Embedding> &emb)
{
    if (!cache.enabled())
        return;
    Writer w;
    w.u8(emb ? 1 : 0);
    if (emb) {
        w.u64(emb->chains.size());
        for (const auto &chain : emb->chains) {
            w.u64(chain.size());
            for (uint32_t q : chain)
                w.u32(q);
        }
    }
    cache.store(embeddingEntryName(key), frame(kEntryMagic, w.buffer()));
}

} // namespace qac::artifact
