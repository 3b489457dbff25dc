/**
 * @file
 * Machine-readable bench output.
 *
 * Each benchmark main() opens a benchstats::Scope("<name>"); on exit
 * it writes BENCH_<name>.json (the qac-stats-v1 schema from
 * stats/report.h) into the working directory, capturing every metric
 * the instrumented pipeline recorded during the run.  The printed
 * tables are the human-readable half: EXPERIMENTS.md holds the paper
 * benches' stdout verbatim, checked by scripts/experiments.py.
 */

#ifndef QAC_BENCH_BENCH_STATS_H
#define QAC_BENCH_BENCH_STATS_H

#include <cstdio>
#include <cstdlib>
#include <string>

#include "qac/stats/registry.h"
#include "qac/stats/report.h"
#include "qac/telemetry/manifest.h"

namespace qac::benchstats {

/**
 * True when QAC_BENCH_SMOKE is set to a non-empty, non-"0" value.
 * scripts/bench_smoke.sh exports it.  Only the throughput benches
 * (bench_sim, bench_ising_kernel) shrink their workload for it; the
 * paper benches run one size, the one EXPERIMENTS.md reports.
 */
inline bool
smoke()
{
    const char *v = std::getenv("QAC_BENCH_SMOKE");
    return v && *v && !(v[0] == '0' && v[1] == '\0');
}

class Scope
{
  public:
    explicit Scope(std::string name) : name_(std::move(name))
    {
        stats::Registry::global().reset();
        stats::Registry::global().setEnabled(true);
    }

    ~Scope()
    {
        std::string path = "BENCH_" + name_ + ".json";
        // Provenance block: version + git describe + host make a
        // bench JSON self-describing when read apart from its run.
        telemetry::Manifest manifest =
            telemetry::Manifest::make("bench_" + name_);
        if (smoke())
            manifest.param("smoke", uint64_t{1});
        if (!stats::writeJsonReport(path, manifest.block(true)))
            std::fprintf(stderr, "bench: cannot write %s\n",
                         path.c_str());
        stats::Registry::global().setEnabled(false);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::string name_;
};

} // namespace qac::benchstats

#endif // QAC_BENCH_BENCH_STATS_H
