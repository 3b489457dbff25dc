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
 *  - writes are atomic (a temp file "<name>.tmp.<pid>.<n>", unique
 *    per write, renamed in the same directory); a walk deletes a temp
 *    file more than an hour old, orphaned by a crashed writer;
 *  - the store is LRU size-capped.  A process-wide ledger per
 *    directory tracks its bytes, so a store walks the directory only
 *    when it is the first store into that directory in this process,
 *    when the ledger says the cap is exceeded, or after max_bytes/8
 *    of stores since the last walk.  A walk over the cap evicts by
 *    mtime, oldest first, down to max_bytes - max_bytes/8.  Other
 *    processes' writes can push the directory at most max_bytes/8
 *    per writer over the cap before the next walk notices them;
 *  - corrupt, truncated, or version-mismatched entries log a warning,
 *    count qac.cache.corrupt, and behave as a miss;
 *  - any filesystem failure degrades to "cache disabled", never to a
 *    failed compile.
 *
 * Stats: qac.cache.{hit,miss,corrupt,evict,bytes,walks,lookup_time};
 * bytes is gauged from the ledger after each store, walks counts
 * directory walks.
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
    /** LRU size cap on the directory's bytes, checked after each
     *  store against the process-wide ledger (see the file comment). */
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
     * Atomically persist entry @p name and add it to the directory's
     * ledger.  When the ledger calls for a walk (see the file
     * comment), evict least-recently-used entries if the directory is
     * over max_bytes.  Safe to call from several threads, also for the
     * same @p name.  Names must not contain ".tmp.".  Failures warn
     * and return false; they never throw.
     */
    bool store(const std::string &name, std::string_view bytes);

  private:
    struct Ledger;
    static Ledger &ledgerFor(const std::string &dir);

    /** Walk the directory; if it is over max_bytes, evict
     *  least-recently-used entries down to max_bytes - max_bytes/8.
     *  Returns the bytes left.  Called with the ledger locked. */
    uint64_t evict();

    bool enabled_ = false;
    std::string dir_;
    uint64_t max_bytes_ = 0;
    Ledger *ledger_ = nullptr;
};

// ---- the embedding memo the compiler stores in the cache ----

/**
 * Content address for one minor-embedding problem: canonical logical
 * model + hardware graph + embedder parameters + format version.
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
