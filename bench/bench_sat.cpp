/**
 * @file
 * SAT/MaxSAT solving through the DIMACS frontend, the experiment of
 * Bian et al.'s quantum-annealing SAT study: random and crafted
 * instances lowered via penalty gadgets, sampled with SA, SQA, and
 * the qbsolv decomposer, reporting success probability against the
 * brute-force optimum and TTS(0.99) per solver.
 *
 * All instances are generated from fixed seeds and every sampler is
 * bitwise-deterministic, so the printed table is exact and
 * EXPERIMENTS.md holds it verbatim (scripts/experiments.py).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/core/compiler.h"
#include "qac/dimacs/dimacs.h"
#include "qac/stats/registry.h"
#include "qac/telemetry/analyze.h"
#include "qac/util/rng.h"
#include "qac/util/strings.h"

#include "bench_stats.h"

namespace {

using namespace qac;

/**
 * Planted random 3-SAT: clauses are drawn uniformly, then one literal
 * is flipped where needed so a hidden assignment satisfies every
 * clause — guaranteed-SAT instances in the uf20 style.
 */
std::string
plantedCnf(Rng &rng, uint32_t nv, uint32_t nc)
{
    std::vector<bool> planted(nv);
    for (uint32_t v = 0; v < nv; ++v)
        planted[v] = rng.below(2) != 0;
    std::string text = format("p cnf %u %u\n", nv, nc);
    for (uint32_t c = 0; c < nc; ++c) {
        uint32_t vars[3];
        for (int k = 0; k < 3; ++k) {
            bool fresh = false;
            while (!fresh) {
                vars[k] = static_cast<uint32_t>(rng.below(nv));
                fresh = true;
                for (int j = 0; j < k; ++j)
                    fresh = fresh && vars[j] != vars[k];
            }
        }
        bool neg[3], sat = false;
        for (int k = 0; k < 3; ++k) {
            neg[k] = rng.below(2) != 0;
            sat = sat || (neg[k] != planted[vars[k]]);
        }
        if (!sat) {
            uint32_t fix = static_cast<uint32_t>(rng.below(3));
            neg[fix] = !planted[vars[fix]];
        }
        for (int k = 0; k < 3; ++k)
            text += format("%s%u ", neg[k] ? "-" : "", vars[k] + 1);
        text += "0\n";
    }
    return text;
}

/** Unplanted uniform random 3-SAT near the phase transition. */
std::string
uniformCnf(Rng &rng, uint32_t nv, uint32_t nc)
{
    std::string text = format("p cnf %u %u\n", nv, nc);
    for (uint32_t c = 0; c < nc; ++c) {
        uint32_t vars[3];
        for (int k = 0; k < 3; ++k) {
            bool fresh = false;
            while (!fresh) {
                vars[k] = static_cast<uint32_t>(rng.below(nv));
                fresh = true;
                for (int j = 0; j < k; ++j)
                    fresh = fresh && vars[j] != vars[k];
            }
        }
        for (int k = 0; k < 3; ++k)
            text += format("%s%u ", rng.below(2) ? "-" : "",
                           vars[k] + 1);
        text += "0\n";
    }
    return text;
}

/** Planted hard core plus conflicting random soft units (MaxSAT). */
std::string
weightedInstance(Rng &rng, uint32_t nv)
{
    std::string hard = plantedCnf(rng, nv, nv * 2);
    // Rewrite the header and prefix weights: hard = top, softs below.
    const uint64_t top = 1000;
    std::string text =
        format("p wcnf %u %u %llu\n", nv, nv * 2 + nv,
               static_cast<unsigned long long>(top));
    size_t at = hard.find('\n') + 1; // skip the p line
    while (at < hard.size()) {
        size_t nl = hard.find('\n', at);
        text += format("%llu ", static_cast<unsigned long long>(top)) +
            hard.substr(at, nl - at + 1);
        at = nl + 1;
    }
    for (uint32_t v = 1; v <= nv; ++v)
        text += format("%llu %s%u 0\n",
                       static_cast<unsigned long long>(1 + rng.below(9)),
                       rng.below(2) ? "-" : "", v);
    return text;
}

struct Instance
{
    std::string name;
    std::string text;
};

struct Prepared
{
    std::string name;
    core::CompileResult compiled;
    double ground_energy = 0.0; ///< oracle optimum in Ising terms
};

Prepared
prepare(const Instance &inst)
{
    dimacs::Instance parsed = dimacs::parseDimacs(inst.text);
    dimacs::Optimum opt = dimacs::bruteForceOptimum(parsed);

    core::CompileOptions co;
    co.frontend = "dimacs";
    Prepared p;
    p.name = inst.name;
    p.compiled = core::compile(inst.text, co);
    const dimacs::DecodeInfo &dec = *p.compiled.dimacs_decode;
    // Optimal penalty: hard violations at the scaled hard weight plus
    // (for MaxSAT) the violated soft weight; minus the lowering's
    // constant offset gives the Ising ground energy.
    const double penalty =
        static_cast<double>(opt.hard_unsatisfied) * dec.hard_weight +
        (dec.weighted ? opt.violated_weight : 0.0);
    p.ground_energy = penalty - dec.energy_offset;
    return p;
}

std::vector<Instance>
makeInstances()
{
    const uint32_t nv = 20;
    std::vector<Instance> out;
    Rng r1(101), r2(202), r3(303);
    out.push_back({"planted3sat", plantedCnf(r1, nv, nv * 4)});
    out.push_back({"rand3sat", uniformCnf(r2, 14, 59)});
    out.push_back({"maxsat", weightedInstance(r3, 12)});
    return out;
}

void
printSolverSweep(const std::vector<Prepared> &instances)
{
    const uint32_t reads = 200;
    const uint32_t sweeps = 512;
    std::printf("--- SAT/MaxSAT via penalty gadgets: success "
                "probability and TTS(0.99) ---\n");
    std::printf("%-12s %-8s %6s %7s %10s %12s %13s\n", "instance",
                "solver", "reads", "sweeps", "p_success", "tts99_reads",
                "tts99_sweeps");
    for (const auto &p : instances) {
        for (const char *solver : {"sa", "sqa", "qbsolv"}) {
            anneal::SamplerOpts so;
            so.common.num_reads = reads;
            so.common.seed = 29;
            so.sweeps = sweeps;
            if (std::string(solver) == "qbsolv") {
                // Keep the default 20-variable exact window (each
                // subproblem is a 2^20 enumeration) but spend the
                // read budget on restarts and improvement rounds: one
                // restart with few rounds stalls below the optimum on
                // these lowered models (vars + chain ancillas).
                so.extra["qbsolv.restarts"] = 8;
                so.extra["qbsolv.outer_iterations"] = 32;
            }
            auto sampler = anneal::makeSampler(solver, so);
            const auto t0 = std::chrono::steady_clock::now();
            anneal::SampleSet set =
                sampler->sample(p.compiled.assembled.model);
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            telemetry::AnalyzeOptions ao;
            ao.ground_energy = p.ground_energy;
            ao.energy_tol = 1e-6;
            ao.elapsed_ns = static_cast<uint64_t>(elapsed);
            ao.sweeps_per_read = sweeps;
            telemetry::Analysis an = telemetry::analyze(set, ao);

            const std::string key = "sat." + p.name + "." + solver;
            stats::record(key + ".success_probability",
                          an.success_probability);
            if (std::isfinite(an.tts_reads))
                stats::record(key + ".tts99_reads", an.tts_reads);
            else
                stats::record(key + ".unsolved", 1.0);

            char tts_r[32], tts_s[32];
            if (std::isfinite(an.tts_reads)) {
                std::snprintf(tts_r, sizeof tts_r, "%.1f",
                              an.tts_reads);
                std::snprintf(tts_s, sizeof tts_s, "%.0f",
                              an.tts_sweeps);
            } else {
                std::snprintf(tts_r, sizeof tts_r, "inf");
                std::snprintf(tts_s, sizeof tts_s, "inf");
            }
            std::printf("%-12s %-8s %6u %7u %10.3f %12s %13s\n",
                        p.name.c_str(), solver, reads, sweeps,
                        an.success_probability, tts_r, tts_s);
        }
    }
    std::printf("(SQA beats SA on every instance; qbsolv's "
                "exact-window decomposition stalls above the\n optimum "
                "on all three lowered models at this budget)\n\n");
}

const Prepared *g_bm_instance = nullptr;

void
BM_SatSample(benchmark::State &state, const char *solver)
{
    anneal::SamplerOpts so;
    so.common.num_reads = 25;
    so.common.seed = 31;
    so.sweeps = 256;
    auto sampler = anneal::makeSampler(solver, so);
    uint64_t hits = 0, total = 0;
    for (auto _ : state) {
        so.common.seed += 1;
        anneal::SampleSet set =
            sampler->sample(g_bm_instance->compiled.assembled.model);
        telemetry::AnalyzeOptions ao;
        ao.ground_energy = g_bm_instance->ground_energy;
        ao.energy_tol = 1e-6;
        telemetry::Analysis an = telemetry::analyze(set, ao);
        hits += static_cast<uint64_t>(an.success_probability *
                                      static_cast<double>(
                                          an.total_reads));
        total += an.total_reads;
    }
    state.counters["p_success"] =
        total ? static_cast<double>(hits) / static_cast<double>(total)
              : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("sat");
    std::vector<Prepared> instances;
    for (const auto &inst : makeInstances())
        instances.push_back(prepare(inst));
    printSolverSweep(instances);

    g_bm_instance = &instances.front(); // the planted 3-SAT
    benchmark::RegisterBenchmark("BM_SatSample/sa", BM_SatSample, "sa")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_SatSample/sqa", BM_SatSample,
                                 "sqa")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_SatSample/qbsolv", BM_SatSample,
                                 "qbsolv")
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
