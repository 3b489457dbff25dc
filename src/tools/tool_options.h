/**
 * @file
 * Observability and execution flags shared by qacc and qma, so both
 * tools parse --stats / --trace-json / --threads / --quiet / -v
 * identically:
 *
 *   --stats              print a text stats report to stderr at exit
 *   --stats=FILE         write the qac-stats-v1 JSON report to FILE
 *   --trace-json=FILE    write a Chrome trace-event JSON to FILE
 *   --telemetry=FILE     write per-read solver telemetry JSONL to FILE
 *   --telemetry-stride N record every Nth sweep (default 1)
 *   --telemetry-capacity N  per-read ring-buffer size (default 256)
 *   --threads N          sampler worker threads (0 = hardware
 *                        concurrency); compiles are single-threaded,
 *                        and results are identical for any value
 *   --cache-dir DIR      artifact-cache root (default $QAC_CACHE_DIR
 *                        or ~/.cache/qac)
 *   --no-cache           disable the artifact cache for this run
 *   --quiet, -q          verbosity 0: suppress all non-error output
 *   -v, --verbose        verbosity 2: extra progress output
 *
 * Also home to parseUint(), the checked numeric-flag parser: every
 * numeric CLI value goes through it so malformed input produces a
 * clean fatal() usage error instead of an uncaught std::stoul abort.
 */

#ifndef QAC_TOOLS_TOOL_OPTIONS_H
#define QAC_TOOLS_TOOL_OPTIONS_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "qac/service/request.h"
#include "qac/stats/registry.h"
#include "qac/stats/report.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/manifest.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"

namespace qac::tools {

struct CommonOptions
{
    bool stats = false;
    std::string stats_file;
    std::string trace_file;
    std::string telemetry_file;      ///< per-read JSONL sink
    uint32_t telemetry_stride = 1;   ///< record every Nth sweep
    uint32_t telemetry_capacity = 256; ///< ring-buffer points per read
    uint32_t threads = 0; ///< workers; 0 = hardware concurrency
    std::string cache_dir; ///< artifact-cache root; empty = default
    bool no_cache = false; ///< disable the artifact cache
    int verbosity = 1;
    /** Run provenance, embedded in every stats/telemetry report.  The
     *  tool fills tool/input/seed/params after parsing. */
    telemetry::Manifest manifest;
};

/**
 * Parse the value of a numeric flag as an unsigned integer.
 * fatal()s with a clean, flag-naming message on anything malformed —
 * empty, signed, non-numeric, trailing junk, or out of range — so bad
 * input exits with a usage error instead of an uncaught
 * std::invalid_argument.
 */
inline uint64_t
parseUint(const char *flag, const char *text,
          uint64_t max_value = UINT64_MAX)
{
    const char *end = text + std::strlen(text);
    uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value, 10);
    if (ec != std::errc{} || ptr != end || text == end)
        fatal("%s: expected a non-negative integer, got '%s'", flag,
              text);
    if (value > max_value)
        fatal("%s: value %llu out of range (max %llu)", flag,
              static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(max_value));
    return value;
}

/**
 * @return true when argv[i] was one of the shared flags (consumed;
 * @p i advances past any value argument, as for "--threads N").
 */
inline bool
parseCommonFlag(CommonOptions &opts, int argc, char **argv, int &i)
{
    const std::string arg = argv[i];
    if (arg == "--stats") {
        opts.stats = true;
        return true;
    }
    if (arg.rfind("--stats=", 0) == 0) {
        opts.stats = true;
        opts.stats_file = arg.substr(8);
        return true;
    }
    if (arg.rfind("--trace-json=", 0) == 0) {
        opts.trace_file = arg.substr(13);
        return true;
    }
    if (arg.rfind("--telemetry=", 0) == 0) {
        opts.telemetry_file = arg.substr(12);
        return true;
    }
    if (arg == "--telemetry-stride") {
        if (i + 1 >= argc)
            fatal("--telemetry-stride requires a value");
        opts.telemetry_stride = static_cast<uint32_t>(
            parseUint("--telemetry-stride", argv[++i], UINT32_MAX));
        return true;
    }
    if (arg.rfind("--telemetry-stride=", 0) == 0) {
        opts.telemetry_stride = static_cast<uint32_t>(
            parseUint("--telemetry-stride", arg.c_str() + 19,
                      UINT32_MAX));
        return true;
    }
    if (arg == "--telemetry-capacity") {
        if (i + 1 >= argc)
            fatal("--telemetry-capacity requires a value");
        opts.telemetry_capacity = static_cast<uint32_t>(
            parseUint("--telemetry-capacity", argv[++i], UINT32_MAX));
        return true;
    }
    if (arg.rfind("--telemetry-capacity=", 0) == 0) {
        opts.telemetry_capacity = static_cast<uint32_t>(
            parseUint("--telemetry-capacity", arg.c_str() + 21,
                      UINT32_MAX));
        return true;
    }
    if (arg == "--threads") {
        if (i + 1 >= argc)
            fatal("--threads requires a value");
        opts.threads = static_cast<uint32_t>(
            parseUint("--threads", argv[++i], UINT32_MAX));
        return true;
    }
    if (arg.rfind("--threads=", 0) == 0) {
        opts.threads = static_cast<uint32_t>(
            parseUint("--threads", arg.c_str() + 10, UINT32_MAX));
        return true;
    }
    if (arg == "--cache-dir") {
        if (i + 1 >= argc)
            fatal("--cache-dir requires a value");
        opts.cache_dir = argv[++i];
        return true;
    }
    if (arg.rfind("--cache-dir=", 0) == 0) {
        opts.cache_dir = arg.substr(12);
        return true;
    }
    if (arg == "--no-cache") {
        opts.no_cache = true;
        return true;
    }
    if (arg == "--quiet" || arg == "-q") {
        opts.verbosity = 0;
        return true;
    }
    if (arg == "-v" || arg == "--verbose") {
        opts.verbosity = 2;
        return true;
    }
    return false;
}

/**
 * Parse one of the shared solver-parameter flags straight into the
 * unified request (service::SampleRequest) — the same struct `qma
 * run`, `qma client`, qacc --run, and qmad requests all execute, so
 * the four paths cannot drift on defaults or ranges:
 *
 *   --solver NAME     sampler registry name
 *   --reads N         anneal reads
 *   --sweeps N        sweeps per read
 *   --seed N          base RNG seed
 *   --request-id N    replay stream selector (0 = plain seed)
 *   --physical        sample the embedded physical model, without
 *                     roof-duality reduction
 *
 * @return true when argv[i] was consumed (@p i advances past values).
 */
inline bool
parseParamFlag(service::SampleRequest &req, int argc, char **argv,
               int &i)
{
    const std::string arg = argv[i];
    auto need = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("%s requires a value", arg.c_str());
        return argv[++i];
    };
    if (arg == "--solver") {
        req.solver = need();
        return true;
    }
    if (arg == "--reads") {
        req.common.num_reads = static_cast<uint32_t>(
            parseUint("--reads", need(), UINT32_MAX));
        return true;
    }
    if (arg == "--sweeps") {
        req.sweeps = static_cast<uint32_t>(
            parseUint("--sweeps", need(), UINT32_MAX));
        return true;
    }
    if (arg == "--seed") {
        req.common.seed = parseUint("--seed", need());
        return true;
    }
    if (arg == "--request-id") {
        req.request_id = parseUint("--request-id", need());
        return true;
    }
    if (arg == "--physical") {
        req.use_physical = true;
        req.reduce = false;
        return true;
    }
    return false;
}

inline const char *
paramsUsage()
{
    return "  --reads <N> --sweeps <N> --seed <N>\n"
           "  --request-id <N>      replay id: derives an independent "
           "seed stream (0 = plain seed)\n"
           "  --physical            sample the embedded physical model\n";
}

inline const char *
commonUsage()
{
    return "  --stats[=FILE]        stats report (text to stderr, or "
           "JSON to FILE)\n"
           "  --trace-json=FILE     write a Chrome trace-event JSON\n"
           "  --telemetry=FILE      write per-read solver telemetry "
           "JSONL\n"
           "  --telemetry-stride N  record every Nth sweep (default "
           "1)\n"
           "  --telemetry-capacity N  sweep points kept per read "
           "(default 256)\n"
           "  --threads N           sampler worker threads (0 = hardware "
           "concurrency);\n"
           "                        compiles are single-threaded\n"
           "  --cache-dir DIR       artifact-cache root (default "
           "$QAC_CACHE_DIR or ~/.cache/qac)\n"
           "  --no-cache            disable the artifact cache\n"
           "  --quiet, -q           errors only\n"
           "  -v, --verbose         extra output\n";
}

/** Install verbosity and enable the registry/trace. Call before work. */
inline void
applyCommonOptions(const CommonOptions &opts)
{
    setVerbosity(opts.verbosity);
    if (opts.stats)
        stats::Registry::global().setEnabled(true);
    if (!opts.trace_file.empty())
        stats::Trace::global().setEnabled(true);
    if (!opts.telemetry_file.empty()) {
        telemetry::Config cfg;
        cfg.stride = opts.telemetry_stride;
        cfg.capacity = opts.telemetry_capacity;
        telemetry::Collector::global().configure(cfg);
        telemetry::Collector::global().setEnabled(true);
    }
}

/** Emit the requested reports. Call once, after the work is done. */
inline void
finishCommonOptions(const CommonOptions &opts)
{
    if (!opts.trace_file.empty() &&
        !stats::Trace::global().writeFile(opts.trace_file))
        warn("cannot write trace to '%s'", opts.trace_file.c_str());
    if (!opts.telemetry_file.empty() &&
        // The JSONL carries the thread-invariant manifest variant so
        // the file is byte-identical at any --threads.
        !telemetry::Collector::global().writeFile(
            opts.telemetry_file, opts.manifest.record(false)))
        warn("cannot write telemetry to '%s'",
             opts.telemetry_file.c_str());
    if (!opts.stats_file.empty() &&
        !stats::writeJsonReport(opts.stats_file,
                                opts.manifest.block(true)))
        warn("cannot write stats to '%s'", opts.stats_file.c_str());
    if (opts.stats && opts.verbosity > 0)
        std::fputs(stats::textReport().c_str(), stderr);
}

} // namespace qac::tools

#endif // QAC_TOOLS_TOOL_OPTIONS_H
