#include "qac/stats/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "qac/util/strings.h"

namespace qac::stats {

Trace &
Trace::global()
{
    static Trace instance;
    return instance;
}

bool
Trace::setEnabled(bool enabled)
{
    return enabled_.exchange(enabled, std::memory_order_relaxed);
}

uint64_t
Trace::nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             epoch)
            .count());
}

uint32_t
Trace::tidFor(std::thread::id id)
{
    auto it = tids_.find(id);
    if (it == tids_.end())
        it = tids_.emplace(id, static_cast<uint32_t>(tids_.size() + 1)).first;
    return it->second;
}

void
Trace::complete(const std::string &name, uint64_t start_ns, uint64_t dur_ns)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        {name, 'X', start_ns, dur_ns, tidFor(std::this_thread::get_id())});
}

void
Trace::instant(const std::string &name)
{
    uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        {name, 'i', now, 0, tidFor(std::this_thread::get_id())});
}

void
Trace::flowBegin(const std::string &name, uint64_t id)
{
    uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        {name, 's', now, 0, tidFor(std::this_thread::get_id()), id});
}

void
Trace::flowEnd(const std::string &name, uint64_t id)
{
    uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        {name, 'f', now, 0, tidFor(std::this_thread::get_id()), id});
}

uint64_t
Trace::newFlowId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
Trace::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
}

size_t
Trace::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::string
Trace::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    bool first = true;
    for (const auto &e : events_) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"";
        appendJsonEscaped(out, e.name);
        out += "\",\"cat\":\"qac\",\"ph\":\"";
        out += e.phase;
        out += '"';
        // Trace-event timestamps are microseconds; keep sub-µs
        // resolution as a fraction.
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                      static_cast<double>(e.ts_ns) / 1000.0);
        out += buf;
        if (e.phase == 'X') {
            std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                          static_cast<double>(e.dur_ns) / 1000.0);
            out += buf;
        }
        if (e.phase == 'i')
            out += ",\"s\":\"t\"";
        if (e.phase == 's' || e.phase == 'f') {
            std::snprintf(buf, sizeof buf, ",\"id\":%llu",
                          static_cast<unsigned long long>(e.id));
            out += buf;
            // Bind the arrow head to the enclosing slice, not the
            // next slice on the thread.
            if (e.phase == 'f')
                out += ",\"bp\":\"e\"";
        }
        std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u}", e.tid);
        out += buf;
    }
    out += "]}";
    return out;
}

bool
Trace::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toJson() << '\n';
    return static_cast<bool>(os);
}

} // namespace qac::stats
