/**
 * @file
 * The unified request/session API of the serving layer.
 *
 * One SampleRequest/SampleResult pair describes every way a compiled
 * program gets executed — `qma run design.qo` (local), `qma client`
 * (remote), and the qmad daemon all consume the same structs, so the
 * local and remote paths are diff-identical by construction.
 * core::Executable::RunOptions and the tools' option parsing are thin
 * adapters over SampleRequest; the solver/reads/sweeps/seed/threads
 * knobs live here and nowhere else.
 *
 * Replay contract: the effective base seed of a request is
 * requestSeed(seed, request_id) — a pure function of the two — and
 * every sampler derives read k from Rng::streamAt(effective, k).  A
 * replayed (seed, request id) pair therefore returns byte-identical
 * samples at any thread count and regardless of what other requests
 * it was batched with.
 */

#ifndef QAC_SERVICE_REQUEST_H
#define QAC_SERVICE_REQUEST_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/util/rng.h"

namespace qac::core {
class Executable;
}

namespace qac::service {

/**
 * One pin+sample request against a compiled object.  Everything that
 * determines the returned samples is in here (plus the object bytes
 * themselves); nothing about scheduling or transport is.
 */
struct SampleRequest
{
    /** Canonical .qo digest (artifact::qoDigestHex) naming the object
     *  to execute.  Empty for local runs where the caller already
     *  holds the Executable. */
    std::string object_digest;

    /** qmasm-style pin directives, e.g. "C[7:0] := 10001111". */
    std::vector<std::string> pins;

    /** Sampler name for anneal::makeSampler ("sa", "sqa", "exact",
     *  "qbsolv", "descent", "chainflip", ...).  "sa" on an embedded
     *  model is upgraded to "chainflip" automatically: embedded
     *  landscapes need composite chain moves. */
    std::string solver = "sa";

    /** seed / num_reads / threads — the anneal-layer common knobs.
     *  threads is scheduling only and never changes results. */
    anneal::CommonParams common{.num_reads = 500, .seed = 1,
                                .threads = 0};

    uint32_t sweeps = 512; ///< anneal length per read

    /** Sample the minor-embedded physical model (requires a
     *  Chimera-target compile). */
    bool use_physical = false;

    /** Roof-duality-style elision of a-priori-determined variables
     *  before sampling. */
    bool reduce = true;

    /**
     * Caller-chosen replay handle.  0 (the default) means "plain run":
     * the effective seed is common.seed itself, which keeps historic
     * CLI behaviour.  Nonzero ids select independent RNG stream
     * families, so a service can give every request its own id and
     * still replay any of them exactly.
     */
    uint64_t request_id = 0;
};

/**
 * The effective base seed of a request: a pure function of
 * (seed, request id), derived through the counter-based stream
 * generator so distinct ids give unrelated stream families.  Id 0 is
 * the identity — a request without an id samples exactly like the
 * historical CLI path.
 */
inline uint64_t
requestSeed(uint64_t seed, uint64_t request_id)
{
    if (request_id == 0)
        return seed;
    return Rng::streamAt(seed, request_id).next();
}

/** Wire-safe mirror of core::Executable::RunResult. */
struct SampleResult
{
    uint64_t request_id = 0; ///< echoed from the request

    // Object header (echoed from the served object's compile stats).
    uint64_t logical_vars = 0;
    uint64_t logical_terms = 0;
    bool embedded = false;

    struct Candidate
    {
        std::map<std::string, bool> values; ///< visible symbols
        double energy = 0.0;
        uint32_t occurrences = 0;
        bool valid = false; ///< all gate asserts + pins hold;
                            ///< DIMACS: all hard clauses satisfied
        uint64_t chain_breaks = 0;

        /** DIMACS decode (empty/zero for other frontends): the
         *  "v ... 0" model line and clause-satisfaction account. */
        std::string model_line;
        uint64_t clauses_satisfied = 0;
        uint64_t clauses_total = 0;
        double weight_violated = 0.0;
    };

    std::vector<Candidate> candidates; ///< unique, best-energy first
    uint64_t total_reads = 0;
    uint64_t vars_sampled = 0; ///< after reduction/embedding
    uint64_t vars_fixed = 0;   ///< elided a priori

    /** Per-request provenance manifest (telemetry::Manifest::block):
     *  solver, params, seed, object digest, request id.  Deliberately
     *  excludes wall-clock and thread-count fields so a result is
     *  byte-identical wherever and however it ran. */
    std::string manifest_json;

    bool hasValid() const;
    double validFraction() const;
    std::vector<const Candidate *> validCandidates() const;
};

/**
 * Execute @p req against @p exe.  THE execution path: `qma run`,
 * `qma client` (via qmad), and the daemon's batch worker all end
 * here, which is what makes local and remote reports diff-identical.
 * Pins come from the request (plus any already bound on @p exe);
 * @p exe is not mutated and may be shared across concurrent calls.
 *
 * Throws FatalError/UnknownSolverError on invalid requests.
 */
SampleResult runLocal(const core::Executable &exe,
                      const SampleRequest &req);

// ---- canonical byte codecs (artifact framing payloads) ----

/** Serialize @p req canonically (sorted, fixed-width, no padding). */
std::string serializeRequest(const SampleRequest &req);

/** Parse bytes from serializeRequest; false on malformed input. */
bool parseRequest(std::string_view bytes, SampleRequest &out,
                  std::string *error = nullptr);

/**
 * Serialize @p res canonically.  Pure function of the sample data —
 * no wall-clock, host, or scheduling fields — so equal runs produce
 * equal bytes (the replay/batching tests compare these directly).
 */
std::string serializeResult(const SampleResult &res);

/** Parse bytes from serializeResult; false on malformed input. */
bool parseResult(std::string_view bytes, SampleResult &out,
                 std::string *error = nullptr);

/**
 * Print the human report for @p res to @p out — the exact lines
 * `qma run` has always printed, shared with `qma client` so the two
 * transports are byte-identical on stdout.
 */
void printReport(std::FILE *out, const SampleResult &res,
                 int verbosity);

/** The "<name>: N logical variables, M terms (embedded)" header. */
void printObjectLine(std::FILE *out, const std::string &name,
                     uint64_t vars, uint64_t terms, bool embedded);

} // namespace qac::service

#endif // QAC_SERVICE_REQUEST_H
