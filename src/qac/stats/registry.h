/**
 * @file
 * Process-wide hierarchical stats registry.
 *
 * Metrics are named by dotted paths ("netlist.opt.const_fold.gates_removed",
 * "embed.minorminer.chain_len") and come in three kinds: Counter (monotonic
 * add or gauge-style set), Distribution (streaming count/sum/min/max/stddev
 * moments), and Timer (accumulated wall-clock, fed by the RAII ScopedTimer,
 * which doubles as a Chrome trace-event slice when tracing is on — see
 * stats/trace.h).
 *
 * The registry is DISABLED by default: every recording helper early-outs on
 * one relaxed atomic load, so instrumentation left in library code costs
 * nothing in normal runs.  `qacc --stats`, `qma --stats`, the benchmarks,
 * and the stats tests flip it on.  All operations are thread-safe.
 */

#ifndef QAC_STATS_REGISTRY_H
#define QAC_STATS_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qac::stats {

enum class MetricKind { Counter, Distribution, Timer };

/** Monotonic or gauge-style integer metric. */
class Counter
{
  public:
    void add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Streaming moments over recorded samples, plus a capped reservoir
 * (Algorithm R, fixed seed) for p50/p99 quantile estimates: memory
 * stays bounded at kReservoirCap doubles no matter how many samples
 * are recorded, and identical input sequences yield identical
 * quantiles.  Exact when count <= kReservoirCap.
 */
class Distribution
{
  public:
    void record(double v);

    /** Samples retained for quantile estimation. */
    static constexpr size_t kReservoirCap = 512;

    struct Summary
    {
        uint64_t count = 0;
        double sum = 0, min = 0, max = 0, mean = 0, stddev = 0;
        /** Reservoir quantiles (linear interpolation); exact when
         *  count <= kReservoirCap, a uniform-sample estimate beyond. */
        double p50 = 0, p99 = 0;
    };
    Summary summary() const;

  private:
    mutable std::mutex mu_;
    uint64_t count_ = 0;
    double sum_ = 0, sumsq_ = 0, min_ = 0, max_ = 0;
    std::vector<double> reservoir_;
    uint64_t rng_ = 0x9e3779b97f4a7c15ull; ///< fixed seed: repeatable
};

/** Accumulated wall-clock time across calls. */
class Timer
{
  public:
    void addNs(uint64_t ns)
    {
        total_ns_.fetch_add(ns, std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
    }
    uint64_t totalNs() const
    {
        return total_ns_.load(std::memory_order_relaxed);
    }
    uint64_t calls() const
    {
        return calls_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> total_ns_{0};
    std::atomic<uint64_t> calls_{0};
};

/** One metric flattened for reporting (see stats/report.h). */
struct Metric
{
    std::string path;
    MetricKind kind = MetricKind::Counter;
    uint64_t count = 0;    ///< counter value / timer calls / sample count
    uint64_t total_ns = 0; ///< timers only
    Distribution::Summary dist; ///< distributions only
};

class Registry
{
  public:
    /** The process-wide registry all helpers record into. */
    static Registry &global();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    /** @return the previous setting. */
    bool setEnabled(bool enabled);

    /**
     * Look up or create the metric at @p path.  The returned reference
     * stays valid until reset().  Panics if @p path already exists with
     * a different kind.
     */
    Counter &counter(const std::string &path);
    Distribution &distribution(const std::string &path);
    Timer &timer(const std::string &path);

    /** Drop every metric (test/bench isolation); keeps the enabled flag. */
    void reset();

    /** All metrics, sorted by path. */
    std::vector<Metric> snapshot() const;

  private:
    struct Entry;
    Entry &entry(const std::string &path, MetricKind kind);

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;
    std::atomic<bool> enabled_{false};
};

// ---- recording helpers: no-ops (and no allocation) while disabled ----

/** Add @p n to the counter at @p path. */
void count(std::string_view path, uint64_t n = 1);

/** Set the counter at @p path to an absolute (gauge) value. */
void gauge(std::string_view path, uint64_t value);

/** Record one sample into the distribution at @p path. */
void record(std::string_view path, double value);

/**
 * RAII timer: measures its scope into the Registry timer at @p path
 * and, when tracing is enabled, emits a Chrome trace-event slice of the
 * same name.  Nested ScopedTimers yield nested trace slices.
 *
 * Takes the path as a string literal (the pointer must outlive the
 * timer) so a disabled timer costs two relaxed atomic loads and no
 * allocation.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *path);
    ~ScopedTimer();
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *path_;
    uint64_t start_ns_ = 0;
    bool timing_ = false;
    bool tracing_ = false;
};

} // namespace qac::stats

#endif // QAC_STATS_REGISTRY_H
