#include "qac/stats/registry.h"

#include <algorithm>
#include <cmath>

#include "qac/stats/trace.h"
#include "qac/util/logging.h"

namespace qac::stats {

void
Distribution::record(double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    sumsq_ += v * v;
    if (reservoir_.size() < kReservoirCap) {
        reservoir_.push_back(v);
    } else {
        // Algorithm R: sample number count_ replaces a random slot
        // with probability cap/count_, keeping the reservoir a uniform
        // sample of everything seen.  The xorshift is seeded with a
        // constant, never a random device, so identical recording
        // sequences always report identical quantiles.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        uint64_t j = rng_ % count_;
        if (j < kReservoirCap)
            reservoir_[j] = v;
    }
}

Distribution::Summary
Distribution::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Summary s;
    s.count = count_;
    if (count_ == 0)
        return s;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    s.mean = sum_ / static_cast<double>(count_);
    double var = sumsq_ / static_cast<double>(count_) - s.mean * s.mean;
    s.stddev = var > 0 ? std::sqrt(var) : 0.0;
    if (!reservoir_.empty()) {
        std::vector<double> sorted(reservoir_);
        std::sort(sorted.begin(), sorted.end());
        auto quantile = [&sorted](double p) {
            double idx =
                p * static_cast<double>(sorted.size() - 1);
            size_t lo = static_cast<size_t>(idx);
            size_t hi = std::min(lo + 1, sorted.size() - 1);
            double frac = idx - static_cast<double>(lo);
            return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
        };
        s.p50 = quantile(0.50);
        s.p99 = quantile(0.99);
    }
    return s;
}

struct Registry::Entry
{
    MetricKind kind;
    Counter counter;
    Distribution distribution;
    Timer timer;
};

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

bool
Registry::setEnabled(bool enabled)
{
    return enabled_.exchange(enabled, std::memory_order_relaxed);
}

Registry::Entry &
Registry::entry(const std::string &path, MetricKind kind)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(path);
    if (it == entries_.end()) {
        auto e = std::make_unique<Entry>();
        e->kind = kind;
        it = entries_.emplace(path, std::move(e)).first;
    } else if (it->second->kind != kind) {
        panic("stats metric '%s' registered with conflicting kinds",
              path.c_str());
    }
    return *it->second;
}

Counter &
Registry::counter(const std::string &path)
{
    return entry(path, MetricKind::Counter).counter;
}

Distribution &
Registry::distribution(const std::string &path)
{
    return entry(path, MetricKind::Distribution).distribution;
}

Timer &
Registry::timer(const std::string &path)
{
    return entry(path, MetricKind::Timer).timer;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

std::vector<Metric>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Metric> out;
    out.reserve(entries_.size());
    for (const auto &[path, e] : entries_) {
        Metric m;
        m.path = path;
        m.kind = e->kind;
        switch (e->kind) {
          case MetricKind::Counter:
            m.count = e->counter.value();
            break;
          case MetricKind::Timer:
            m.count = e->timer.calls();
            m.total_ns = e->timer.totalNs();
            break;
          case MetricKind::Distribution:
            m.dist = e->distribution.summary();
            m.count = m.dist.count;
            break;
        }
        out.push_back(std::move(m));
    }
    // std::map iteration is already path-sorted; keep the guarantee
    // explicit in case the container ever changes.
    std::sort(out.begin(), out.end(),
              [](const Metric &a, const Metric &b) { return a.path < b.path; });
    return out;
}

void
count(std::string_view path, uint64_t n)
{
    Registry &r = Registry::global();
    if (!r.enabled())
        return;
    r.counter(std::string(path)).add(n);
}

void
gauge(std::string_view path, uint64_t value)
{
    Registry &r = Registry::global();
    if (!r.enabled())
        return;
    r.counter(std::string(path)).set(value);
}

void
record(std::string_view path, double value)
{
    Registry &r = Registry::global();
    if (!r.enabled())
        return;
    r.distribution(std::string(path)).record(value);
}

ScopedTimer::ScopedTimer(const char *path) : path_(path)
{
    timing_ = Registry::global().enabled();
    tracing_ = Trace::global().enabled();
    if (timing_ || tracing_)
        start_ns_ = Trace::nowNs();
}

ScopedTimer::~ScopedTimer()
{
    if (!timing_ && !tracing_)
        return;
    uint64_t dur = Trace::nowNs() - start_ns_;
    if (timing_)
        Registry::global().timer(path_).addNs(dur);
    if (tracing_)
        Trace::global().complete(path_, start_ns_, dur);
}

} // namespace qac::stats
