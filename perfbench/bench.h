/**
 * @file
 * Shared pieces of the qacbench program: command-line arguments, the
 * result record every workload fills in, timing helpers, spans taken
 * around calls into the QAC libraries, and the test-only delay hook
 * the sensitivity self-test uses.
 *
 * Every layer is measured from outside: the benchmark times calls into
 * a layer's public functions, or reads a counter the layer already
 * publishes in stats::Registry.  Nothing under src/ knows about it.
 */

#ifndef QACBENCH_BENCH_H
#define QACBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "qac/stats/registry.h"

namespace qacbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for this run (cache, .qo files, socket). */
    std::string work_dir;
    std::string git_describe = "unknown";
    /** Sensitivity self-test only: delay the named layer's call by
     *  inject_frac of that call's median time.  Empty in real runs. */
    std::string inject_layer;
    double inject_frac = 0.0;
};

/** One metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    std::map<std::string, Metric> metrics;
    /** Workload-specific provenance (the service probe's rate, ...). */
    std::map<std::string, std::string> provenance;

    void
    fail(const std::string &why)
    {
        if (failures.size() < 8)
            failures.push_back(why);
    }
    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set size of this process, in MiB (VmHWM). */
double peakRssMb();

/** Busy-wait for @p ms milliseconds (accurate well below 1 ms). */
void busyWaitMs(double ms);

/**
 * Durations of named spans, in milliseconds.  Thread-safe: the service
 * probe records sampler spans from the server's threads.
 */
class Spans
{
  public:
    void add(const std::string &name, double ms);
    std::vector<double> samples(const std::string &name) const;
    /** Median of a span's samples; 0 when it never ran. */
    double medianMs(const std::string &name) const;
    double totalMs(const std::string &name) const;
    std::vector<std::string> names() const;
    void clear();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::vector<double>> samples_;
};

/** Run @p f, and record its duration under @p name when @p spans is
 *  non-null.  Returns what @p f returns. */
template <class F>
decltype(auto)
timed(Spans *spans, const std::string &name, F &&f)
{
    if (!spans)
        return f();
    auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        spans->add(name, msSince(t0));
    } else {
        decltype(auto) r = f();
        spans->add(name, msSince(t0));
        return r;
    }
}

/** Registry value by path: counter value, timer ms, or distribution
 *  mean; 0 when absent. */
double registryValue(const std::string &path, bool timer_ms = false);
double registryCount(const std::string &path);

/**
 * Set up a workload five times and keep the last state; the median
 * set-up time becomes setup_s, so the first, cold set-up does not
 * decide it.  Earlier states are destroyed before the next set-up.
 */
template <class State>
State
setUpRepeatedly(const std::function<State()> &make, double *setup_s)
{
    std::vector<double> times;
    State state{};
    for (int i = 0; i < 5; ++i) {
        state = State{};
        auto t0 = Clock::now();
        state = make();
        times.push_back(msSince(t0) / 1e3);
    }
    *setup_s = median(times);
    return state;
}

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
void setEndToEnd(Outcome &out, const std::vector<double> &op_ms,
                 double setup_s, double goodput_rps);

/** 64-bit mix of (seed, stream, index) for derived seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t stream, uint64_t index = 0);

// ---- workloads ----
Outcome runCompile(const Args &args);
Outcome runEmbed(const Args &args);
Outcome runSample(const Args &args);

/** The traced sample run's service probe (serve.cpp): per-layer
 *  metrics of an in-process qmad under an open loop of requests. */
void traceService(const Args &args, Outcome &out);

} // namespace qacbench

#endif // QACBENCH_BENCH_H
