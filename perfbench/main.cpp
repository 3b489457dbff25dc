/**
 * @file
 * qacbench: the QAC benchmark program.
 *
 *   qacbench --workload compile|embed|sample --seed N
 *            --seconds S --trace 0|1 --work-dir DIR [--git-describe D]
 *
 * Runs one workload in this process for S seconds on inputs made from
 * the seed, checks every operation's output against an independent
 * reference, and prints a provenance line followed by one JSON result
 * line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
 * the metrics are the end-to-end ones, timed with stats::Registry off;
 * with --trace 1 they are the per-layer ones from a separate traced run.
 * perfbench/run.py builds this program and is the command to use.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "qac/anneal/packed_sweep.h"
#include "qac/util/cpu.h"
#include "qac/util/logging.h"

namespace qacbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

void
busyWaitMs(double ms)
{
    auto until = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
    while (Clock::now() < until) {
    }
}

void
Spans::add(const std::string &name, double ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(ms);
}

std::vector<double>
Spans::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

double
Spans::medianMs(const std::string &name) const
{
    return median(samples(name));
}

double
Spans::totalMs(const std::string &name) const
{
    double sum = 0;
    for (double v : samples(name))
        sum += v;
    return sum;
}

std::vector<std::string>
Spans::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const auto &entry : samples_)
        out.push_back(entry.first);
    return out;
}

void
Spans::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
}

double
registryValue(const std::string &path, bool timer_ms)
{
    for (const auto &m : qac::stats::Registry::global().snapshot()) {
        if (m.path != path)
            continue;
        switch (m.kind) {
        case qac::stats::MetricKind::Timer:
            return timer_ms ? static_cast<double>(m.total_ns) / 1e6
                            : static_cast<double>(m.count);
        case qac::stats::MetricKind::Distribution:
            return m.dist.mean;
        default:
            return static_cast<double>(m.count);
        }
    }
    return 0.0;
}

double
registryCount(const std::string &path)
{
    return registryValue(path, false);
}

void
setEndToEnd(Outcome &out, const std::vector<double> &op_ms,
            double setup_s, double goodput_rps)
{
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peakRssMb(), "MB");
    out.set("op_ms.p50", quantile(op_ms, 0.5), "ms");
    out.set("op_ms.p90", quantile(op_ms, 0.9), "ms");
    out.set("goodput_rps", goodput_rps, "1/s");
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    // splitmix64 over the three words.
    uint64_t z = seed;
    for (uint64_t w : {stream, index}) {
        z += 0x9e3779b97f4a7c15ull + w;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
    }
    return z;
}

} // namespace qacbench

namespace {

using namespace qacbench;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "qacbench: %s\nusage: qacbench --workload "
                 "compile|embed|sample --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--git-describe D]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            a.trace = v == "1";
        } else if (flag == "--work-dir") {
            a.work_dir = v;
        } else if (flag == "--git-describe") {
            a.git_describe = v;
        } else if (flag == "--inject") {
            // layer=fraction, e.g. edif.read=0.2 (self-test only)
            auto eq = v.find('=');
            if (eq == std::string::npos)
                usage("--inject wants layer=fraction");
            a.inject_layer = v.substr(0, eq);
            a.inject_frac = std::stod(v.substr(eq + 1));
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.work_dir.empty())
        usage("--work-dir is required");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    qac::setVerbosity(0);
    qac::stats::Registry::global().setEnabled(false);

    Outcome out;
    try {
        if (args.workload == "compile")
            out = runCompile(args);
        else if (args.workload == "embed")
            out = runEmbed(args);
        else if (args.workload == "sample")
            out = runSample(args);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qacbench: %s workload aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    for (const auto &why : out.failures)
        std::fprintf(stderr, "qacbench: check failed: %s\n", why.c_str());

    const char *engine = qac::anneal::packedSweepEngineName();
    std::string prov = "{\"provenance\": {";
    prov += "\"workload\": " + jsonString(args.workload);
    prov += ", \"seed\": " + std::to_string(args.seed);
    prov += ", \"seconds\": " + jsonNumber(args.seconds);
    prov += ", \"trace\": " + std::string(args.trace ? "1" : "0");
    prov += ", \"git_describe\": " + jsonString(args.git_describe);
    prov += ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency());
    prov += ", \"cpu_model\": " + jsonString(cpuModel());
    prov += ", \"avx2\": " +
        std::string(qac::util::avx2Supported() ? "true" : "false");
    prov += ", \"avx512\": " +
        std::string(qac::util::avx512Supported() ? "true" : "false");
    prov += ", \"sa_engine\": " + jsonString(engine);
    prov += ", \"threads\": 1";
    if (!args.inject_layer.empty())
        prov += ", \"inject\": " +
            jsonString(args.inject_layer + "=" +
                       jsonNumber(args.inject_frac));
    for (const auto &[k, v] : out.provenance)
        prov += ", " + jsonString(k) + ": " + jsonString(v);
    prov += "}}";
    std::printf("%s\n", prov.c_str());

    std::string res = "{\"correct\": ";
    res += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    res += ", \"attempted\": " + std::to_string(out.attempted);
    res += ", \"failed\": " + std::to_string(out.failed);
    res += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : out.metrics) {
        res += first ? "" : ", ";
        first = false;
        res += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
    }
    res += "}}";
    std::printf("%s\n", res.c_str());
    return 0;
}
