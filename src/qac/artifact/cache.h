/**
 * @file
 * Content-addressed on-disk artifact cache.
 *
 * Entries are named by a util::hash digest of everything that
 * determines their contents, so a lookup is a single open() and a
 * stale key simply never matches.  The compiler uses it to memoize
 * the minor-embedding stage — the dominant cost of a Chimera-target
 * compile — keyed by the canonical logical model, the hardware graph,
 * the embedder parameters, and the artifact format version.
 *
 * Robustness rules (a cache must never break a compile):
 *  - writes are atomic (temp file + rename in the same directory);
 *  - the store is LRU size-capped (eviction by mtime after store);
 *  - corrupt, truncated, or version-mismatched entries log a warning,
 *    count qac.cache.corrupt, and behave as a miss;
 *  - any filesystem failure degrades to "cache disabled", never to a
 *    failed compile.
 *
 * Stats: qac.cache.{hit,miss,corrupt,evict,bytes,lookup_time}.
 */

#ifndef QAC_ARTIFACT_CACHE_H
#define QAC_ARTIFACT_CACHE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qac/chimera/hardware_graph.h"
#include "qac/embed/embedding.h"
#include "qac/embed/minorminer.h"
#include "qac/ising/model.h"

namespace qac::artifact {

/**
 * Resolve the cache root: $QAC_CACHE_DIR, else $XDG_CACHE_HOME/qac,
 * else $HOME/.cache/qac, else ./.qac-cache.
 */
std::string defaultCacheDir();

struct CacheOptions
{
    bool enabled = true;
    /** Cache root; empty = defaultCacheDir(). */
    std::string dir;
    /** LRU size cap; eviction runs after each store. */
    uint64_t max_bytes = 256ull << 20;
};

class Cache
{
  public:
    Cache() : Cache(CacheOptions{}) {}
    explicit Cache(const CacheOptions &opts);

    /** False when disabled by options or the directory is unusable. */
    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Raw bytes of entry @p name, or nullopt when absent/unreadable.
     * A successful read refreshes the entry's LRU timestamp.
     */
    std::optional<std::string> load(const std::string &name);

    /**
     * Atomically persist entry @p name, then evict least-recently-used
     * entries until the directory fits max_bytes.  Failures warn and
     * return false; they never throw.
     */
    bool store(const std::string &name, std::string_view bytes);

  private:
    /** Evict least-recently-used entries down to max_bytes; returns
     *  the bytes left in the directory. */
    uint64_t evict();

    bool enabled_ = false;
    std::string dir_;
    uint64_t max_bytes_ = 0;
};

// ---- the embedding memo the compiler stores in the cache ----

/**
 * Content address for one minor-embedding problem: canonical logical
 * model + hardware graph + embedder parameters + format version.
 * Thread count is deliberately excluded — embeddings are
 * thread-count invariant.
 */
uint64_t embeddingCacheKey(const ising::IsingModel &logical,
                           const chimera::HardwareGraph &hw,
                           const embed::EmbedParams &params);

/** Entry file name for @p key ("emb-<16 hex>.qoe"). */
std::string embeddingEntryName(uint64_t key);

/** Outcome of an embedding-cache probe. */
struct EmbeddingProbe
{
    /** A usable entry was found (minorminer can be skipped). */
    bool hit = false;
    /** With hit: false means the problem is known unembeddable. */
    bool embeddable = false;
    std::optional<embed::Embedding> embedding;
};

/**
 * Look up the embedding memo for @p key.  Decodes and re-verifies the
 * chain map against @p edges / @p hw before trusting it; anything
 * suspect counts qac.cache.corrupt and reports a miss.
 */
EmbeddingProbe
lookupEmbedding(Cache &cache, uint64_t key,
                const std::vector<std::pair<uint32_t, uint32_t>> &edges,
                const chimera::HardwareGraph &hw);

/**
 * Persist an embedding result (nullopt = "unembeddable with these
 * parameters", so warm compiles skip doomed retries too).
 */
void storeEmbedding(Cache &cache, uint64_t key,
                    const std::optional<embed::Embedding> &emb);

} // namespace qac::artifact

#endif // QAC_ARTIFACT_CACHE_H
