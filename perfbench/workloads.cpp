/**
 * @file
 * The closed-loop workloads: compile, embed and sample.  Each runs one
 * client with threads = 1, times whole operations with the stats
 * registry off, and checks every operation's output.  The traced
 * variant (--trace 1) reruns the same operations with the registry on
 * and spans around layer calls, and reports the per-layer metrics.
 */

#include <cmath>
#include <filesystem>
#include <memory>
#include <random>

#include "bench.h"
#include "hooks.h"
#include "programs.h"
#include "qac/artifact/cache.h"
#include "qac/artifact/qo.h"
#include "qac/chimera/chimera.h"
#include "qac/core/pins.h"
#include "qac/embed/roof_duality.h"
#include "qac/util/strings.h"

namespace qacbench {

using namespace qac;
namespace fs = std::filesystem;

namespace {

std::string
digestOf(const core::CompileResult &r)
{
    return artifact::qoDigestHex(artifact::serializeQo(r));
}

std::vector<std::pair<uint32_t, uint32_t>>
edgesOf(const ising::IsingModel &m)
{
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const auto &t : m.quadraticTerms())
        edges.emplace_back(t.i, t.j);
    return edges;
}

void
setRegistry(bool on)
{
    stats::Registry::global().setEnabled(on);
}

bool
timeLeft(Clock::time_point start, const Args &args)
{
    return msSince(start) < args.seconds * 1e3;
}

// ---------------------------------------------------------------- compile

struct CompileState
{
    std::vector<Program> programs;
    std::vector<std::string> digests; ///< core::compile's, per program
    std::vector<double> edif_read_delay_ms; ///< self-test only
};

CompileState
setUpCompile(const Args &args)
{
    CompileState s;
    s.programs = compileSet(args.seed);
    s.edif_read_delay_ms.assign(s.programs.size(), 0.0);
    if (args.inject_layer == "edif.read") {
        // Self-test: delay readEdif by a fraction of its own median.
        std::map<std::string, double> delay;
        for (size_t i = 0; i < s.programs.size(); ++i) {
            Program &p = s.programs[i];
            if (p.opts.frontend != "verilog")
                continue;
            Spans spans;
            for (int k = 0; k < 9; ++k)
                layeredCompile(p, &spans, nullptr);
            s.edif_read_delay_ms[i] =
                args.inject_frac * spans.medianMs(p.name + "|edif.read");
            delay[p.opts.verilogOpts().top] = s.edif_read_delay_ms[i];
            p.opts.frontend = "qacbench.verilog";
        }
        registerDelayedVerilogFrontend(delay);
    }
    for (const auto &p : s.programs)
        s.digests.push_back(digestOf(core::compile(p.source, p.opts)));
    return s;
}

// Checks one pass's results; returns false (and records why) on any
// mismatch.  Consumes the results.
bool
checkCompilePass(const CompileState &s,
                 std::vector<core::CompileResult> &results,
                 std::mt19937_64 &rng, Outcome &out)
{
    bool ok = true;
    for (size_t i = 0; i < results.size(); ++i) {
        const Program &p = s.programs[i];
        if (digestOf(results[i]) != s.digests[i]) {
            out.fail(p.name + ": .qo digest differs from the run's first");
            ok = false;
        }
        core::Executable exe(std::move(results[i]));
        std::string why = checkForward(p.name, exe, rng, 2);
        if (!why.empty()) {
            out.fail(why);
            ok = false;
        }
    }
    return ok;
}

void
checkExactGroundStates(Outcome &out)
{
    for (Program p : {circuitSat(), multiplier(2)}) {
        ++out.attempted;
        core::Executable exe(core::compile(p.source, p.opts));
        std::string why = checkGroundStates(p.name, exe);
        if (!why.empty()) {
            ++out.failed;
            out.fail(why);
        }
    }
}

void
traceCompile(const Args &args, const CompileState &s, Outcome &out)
{
    const size_t n = s.programs.size();
    std::vector<std::vector<double>> core_ms(n);
    std::vector<double> untraced_pass, traced_pass;
    Spans spans;
    Counts counts;
    auto start = Clock::now();
    while (timeLeft(start, args) || untraced_pass.size() < 3) {
        setRegistry(false);
        auto t0 = Clock::now();
        for (const auto &p : s.programs)
            core::compile(p.source, p.opts);
        untraced_pass.push_back(msSince(t0));

        setRegistry(true);
        for (size_t i = 0; i < n; ++i) {
            auto t1 = Clock::now();
            core::compile(s.programs[i].source, s.programs[i].opts);
            core_ms[i].push_back(msSince(t1));
        }
        ++out.attempted;
        bool ok = true;
        t0 = Clock::now();
        std::vector<core::CompileResult> layered;
        for (size_t i = 0; i < n; ++i)
            layered.push_back(layeredCompile(
                s.programs[i], &spans,
                untraced_pass.size() == 1 ? &counts : nullptr,
                s.edif_read_delay_ms[i]));
        traced_pass.push_back(msSince(t0));
        for (size_t i = 0; i < n; ++i)
            if (digestOf(layered[i]) != s.digests[i]) {
                out.fail(s.programs[i].name +
                         ": layered rerun's .qo digest differs from "
                         "core::compile's");
                ok = false;
            }
        out.failed += ok ? 0 : 1;
    }
    setRegistry(false);

    double unattributed = 0, core_total = 0;
    for (const auto &layer : compileLayers()) {
        double ms = 0;
        for (const auto &p : s.programs)
            ms += spans.medianMs(p.name + "|" + layer);
        out.set(layer + "_ms", ms, "ms");
    }
    for (size_t i = 0; i < n; ++i) {
        const Program &p = s.programs[i];
        double core = median(core_ms[i]), layers = 0;
        for (const auto &layer : compileLayers())
            layers += spans.medianMs(p.name + "|" + layer);
        out.set("core.unattributed_frac." + p.name,
                (core - layers) / core, "ratio");
        unattributed += core - layers;
        core_total += core;
    }
    out.set("core.unattributed_ms", unattributed, "ms");
    out.set("core.unattributed_frac", unattributed / core_total, "ratio");
    for (const auto &[name, value] : counts)
        out.set(name, value,
                name == "edif.bytes" ? "bytes" : "count");
    out.set("trace.overhead_frac",
            median(traced_pass) / median(untraced_pass) - 1, "ratio");
}

// ------------------------------------------------------------------ embed

struct EmbedState
{
    Program prog;
    std::string cache_root;
};

Program
embedProgram(const std::string &cache_dir)
{
    Program p = circuitSat();
    p.opts.target = core::Target::Chimera;
    p.opts.chimera_size = 16;
    p.opts.cache.enabled = true;
    p.opts.cache.dir = cache_dir;
    return p;
}

EmbedState
setUpEmbed(const Args &args)
{
    EmbedState s;
    s.cache_root = args.work_dir + "/embed-cache";
    fs::remove_all(s.cache_root);
    fs::create_directories(s.cache_root);
    s.prog = embedProgram(s.cache_root + "/timed");
    if (args.inject_layer == "edif.read") {
        Program logical = circuitSat();
        Spans spans;
        for (int k = 0; k < 9; ++k)
            layeredCompile(logical, &spans, nullptr);
        registerDelayedVerilogFrontend(
            {{"circsat",
              args.inject_frac * spans.medianMs("circsat|edif.read")}});
        s.prog.opts.frontend = "qacbench.verilog";
    }
    // Warm-up: one cold and one warm compile at a fixed embed seed.
    Program warm = embedProgram(s.cache_root + "/warmup");
    warm.opts.frontend = s.prog.opts.frontend;
    for (int k = 0; k < 2; ++k)
        core::compile(warm.source, warm.opts);
    return s;
}

struct EmbedOp
{
    double cold_ms = 0, warm_ms = 0;
    core::CompileResult cold;
    bool ok = true;
};

EmbedOp
embedOnce(const Program &prog, uint64_t embed_seed, Outcome &out)
{
    core::CompileOptions opts = prog.opts;
    opts.embed.seed = embed_seed;
    EmbedOp op;
    auto t0 = Clock::now();
    op.cold = core::compile(prog.source, opts);
    op.cold_ms = msSince(t0);
    t0 = Clock::now();
    core::CompileResult warm = core::compile(prog.source, opts);
    op.warm_ms = msSince(t0);

    const core::CompileResult &cold = op.cold;
    std::string why;
    if (!cold.embedding || !cold.hardware) {
        why = "no embedding";
    } else if (!embed::verifyEmbedding(*cold.embedding,
                                       edgesOf(cold.assembled.model),
                                       *cold.hardware, &why)) {
        why = "verifyEmbedding: " + why;
    } else if (digestOf(cold) != digestOf(warm)) {
        why = "warm recompile differs from the cold compile";
    }
    if (!why.empty()) {
        out.fail(format("embed seed %llu: %s",
                        static_cast<unsigned long long>(embed_seed),
                        why.c_str()));
        op.ok = false;
    }
    return op;
}

void
traceEmbed(const Args &args, const EmbedState &s, Outcome &out)
{
    Program traced = embedProgram(s.cache_root + "/traced");
    artifact::CacheOptions store_opts;
    store_opts.dir = s.cache_root + "/stores";
    artifact::Cache stores(store_opts);
    std::vector<double> ratio, warm_ms, graph_ms, store_ms, qubits,
        chains, mean_chain;
    size_t traced_ops = 0;
    auto start = Clock::now();
    for (uint64_t i = 0; timeLeft(start, args) || i < 3; ++i) {
        const uint64_t seed = mixSeed(args.seed, 2, i);
        setRegistry(false);
        EmbedOp plain = embedOnce(s.prog, seed, out);
        setRegistry(true);
        EmbedOp op = embedOnce(traced, seed, out);
        ++traced_ops;
        out.attempted += 2;
        out.failed += (plain.ok ? 0 : 1) + (op.ok ? 0 : 1);
        ratio.push_back(op.cold_ms / plain.cold_ms);
        warm_ms.push_back(plain.warm_ms);
        if (!op.ok)
            continue;
        const core::CompileResult &r = op.cold;
        qubits.push_back(static_cast<double>(r.stats.physical_qubits));
        chains.push_back(static_cast<double>(r.stats.max_chain_length));
        mean_chain.push_back(static_cast<double>(r.embedding->totalQubits()) /
                             static_cast<double>(r.embedding->numLogical()));

        // Layer calls made from outside: the hardware graph, and a
        // store of this op's embedding into a separate cache.
        auto t0 = Clock::now();
        chimera::chimeraGraph(16);
        graph_ms.push_back(msSince(t0));
        embed::EmbedParams params = traced.opts.embed;
        params.seed = seed;
        const uint64_t key = artifact::embeddingCacheKey(
            r.assembled.model, *r.hardware, params);
        t0 = Clock::now();
        artifact::storeEmbedding(stores, key, r.embedding);
        store_ms.push_back(msSince(t0));
    }
    auto perCall = [](const std::string &timer) {
        double calls = registryCount(timer);
        return calls > 0 ? registryValue(timer, true) / calls : 0.0;
    };
    out.set("chimera.graph_ms", median(graph_ms), "ms");
    out.set("embed.find_ms", perCall("compile.embed"), "ms");
    out.set("embed.model_ms", perCall("compile.embed_model"), "ms");
    out.set("embed.tries",
            registryCount("embed.minorminer.tries") /
                static_cast<double>(traced_ops),
            "count");
    out.set("embed.unmerged_retries",
            registryCount("embed.unmerged_retries"), "count");
    out.set("embed.chain_len.mean", quantile(mean_chain, 0.5), "qubits");
    out.set("artifact.cache_lookup_ms", perCall("qac.cache.lookup_time"),
            "ms");
    out.set("artifact.cache_store_ms", median(store_ms), "ms");
    const double hits = registryCount("qac.cache.hit");
    const double misses = registryCount("qac.cache.miss");
    out.set("artifact.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    setRegistry(false);
    double qsum = 0, csum = 0;
    for (size_t k = 0; k < qubits.size(); ++k)
        qsum += qubits[k], csum += chains[k];
    out.set("physical_qubits", qsum / static_cast<double>(qubits.size()),
            "qubits");
    out.set("max_chain_len", csum / static_cast<double>(chains.size()),
            "qubits");
    out.set("warm_compile_ms.p50", median(warm_ms), "ms");
    out.set("trace.overhead_frac", median(ratio) - 1, "ratio");

    // The paper's Section 6.1 figure: Australia on C16 at one seeded
    // embedding (about 4-11 s at one thread).
    Program aus = australia();
    aus.opts.target = core::Target::Chimera;
    aus.opts.chimera_size = 16;
    aus.opts.embed.seed = mixSeed(args.seed, 5);
    core::CompileResult r = core::compile(aus.source, aus.opts);
    out.set("australia.physical_qubits",
            static_cast<double>(r.stats.physical_qubits), "qubits");
    out.set("australia.max_chain_len",
            static_cast<double>(r.stats.max_chain_length), "qubits");
}

// ----------------------------------------------------------------- sample

struct SampleJob
{
    std::string name;
    std::shared_ptr<core::Executable> exe;
    core::Executable::RunOptions ro;
};

struct SampleState
{
    std::vector<SampleJob> jobs;
};

SampleJob
sampleJob(const std::string &name, const Program &p, const char *pin,
          uint32_t reads, uint32_t sweeps)
{
    SampleJob job;
    job.name = name;
    job.exe = std::make_shared<core::Executable>(
        core::compile(p.source, p.opts));
    job.ro.pins = {pin};
    job.ro.common.num_reads = reads;
    job.ro.common.threads = 1;
    job.ro.sweeps = sweeps;
    return job;
}

// Checks one run's valid candidates against the reference; returns
// false (and records why) on any violation.
bool
checkSampleRun(const SampleJob &job,
               const core::Executable::RunResult &rr, Outcome &out)
{
    const core::Executable &exe = *job.exe;
    for (const auto *c : rr.validCandidates()) {
        std::string why;
        if (job.name == "factor") {
            uint64_t a = exe.portValue(*c, "A"), b = exe.portValue(*c, "B");
            if (a * b != 143 || exe.portValue(*c, "C") != 143)
                why = format("valid candidate A=%llu B=%llu",
                             static_cast<unsigned long long>(a),
                             static_cast<unsigned long long>(b));
        } else if (job.name == "australia") {
            std::map<std::string, uint64_t> colour;
            for (const auto &r : australiaRegions())
                colour[r] = exe.portValue(*c, r);
            if (!australiaValid(colour))
                why = "valid candidate is not a colouring";
        } else {
            bool a = c->values.at("a"), b = c->values.at("b"),
                 cc = c->values.at("c");
            if (!circsatOutput(a, b, cc) || !c->values.at("y"))
                why = "valid candidate does not satisfy Listing 5";
        }
        if (!why.empty()) {
            out.fail(job.name + ": " + why);
            return false;
        }
    }
    return true;
}

SampleState
setUpSample(const Args &args)
{
    SampleState s;
    s.jobs.push_back(sampleJob("factor", multiplier(4),
                               "C[7:0] := 10001111", 800, 1024));
    s.jobs.push_back(sampleJob("circsat", circuitSat(), "y := true", 200,
                               256));
    s.jobs.push_back(sampleJob("australia", australia(), "valid := true",
                               200, 512));
    Program phys = circuitSat();
    phys.opts.target = core::Target::Chimera;
    phys.opts.chimera_size = 16;
    phys.opts.cache.enabled = false;
    phys.opts.embed.seed = mixSeed(args.seed, 3);
    SampleJob job = sampleJob("circsat_physical", phys, "y := true", 100,
                              256);
    job.ro.use_physical = true;
    job.ro.reduce = false; // as `qacc --run --physical` issues it
    s.jobs.push_back(std::move(job));
    for (auto &j : s.jobs)
        j.exe->run(j.ro); // warm-up
    return s;
}

// The solver names that route through the timed sampler wrappers.
void
useTimedSamplers(SampleState &s)
{
    for (auto &j : s.jobs)
        j.ro.solver = j.ro.use_physical ? "qacbench.chainflip"
                                        : "qacbench.sa";
}

struct Pass
{
    double ms = 0;
    std::vector<double> job_ms;
    bool ok = true;
    uint64_t factor_valid = 0, factor_reads = 0;
    uint64_t vars_fixed = 0, vars_logical = 0;
};

Pass
samplePass(SampleState &s, uint64_t seed, uint64_t index, Outcome &out)
{
    Pass pass;
    std::vector<core::Executable::RunResult> results;
    auto t0 = Clock::now();
    for (auto &j : s.jobs) {
        j.ro.common.seed = mixSeed(seed, 4, index);
        auto t1 = Clock::now();
        results.push_back(j.exe->run(j.ro));
        pass.job_ms.push_back(msSince(t1));
    }
    pass.ms = msSince(t0);
    for (size_t k = 0; k < s.jobs.size(); ++k) {
        const auto &rr = results[k];
        pass.ok = checkSampleRun(s.jobs[k], rr, out) && pass.ok;
        if (s.jobs[k].name == "factor") {
            pass.factor_reads = rr.total_reads;
            for (const auto *c : rr.validCandidates())
                pass.factor_valid += c->occurrences;
        }
        if (s.jobs[k].ro.reduce) {
            pass.vars_fixed += rr.vars_fixed;
            pass.vars_logical +=
                s.jobs[k].exe->compiled().assembled.model.numVars();
        }
    }
    return pass;
}

// The model Executable::run hands to the roof-duality pass: the
// logical model with each pin's bias added (core/program.cpp).
ising::IsingModel
pinnedModel(const SampleJob &job)
{
    const auto &res = job.exe->compiled();
    ising::IsingModel model = res.assembled.model;
    const auto &adj = model.adjacency();
    for (const auto &directive : job.ro.pins)
        for (const auto &pin :
             core::parsePinDirective(directive, res.netlist)) {
            uint32_t v = res.assembled.var(pin.symbol);
            double mass = std::abs(res.assembled.model.linear(v));
            for (const auto &nb : adj[v])
                mass += std::abs(nb.second);
            model.addLinear(v, pin.value ? -(mass + 1) : mass + 1);
        }
    return model;
}

void
traceSample(const Args &args, SampleState &s, Outcome &out)
{
    SampleState traced = s;
    useTimedSamplers(traced);
    SamplerHook &hook = samplerHook();
    hook.spans.clear();
    std::vector<ising::IsingModel> pinned;
    for (const auto &j : s.jobs)
        pinned.push_back(pinnedModel(j));

    std::vector<double> ratio, sample_ms, decode_ms, fix_ms, factor_ms;
    uint64_t valid = 0, reads = 0, fixed = 0, logical = 0, passes = 0;
    double flips = 0, packed = 0, tasks = 0, steals = 0;
    stats::Registry::global().reset();
    auto start = Clock::now();
    for (uint64_t i = 0; timeLeft(start, args) || i < 3; ++i) {
        setRegistry(false);
        Pass plain = samplePass(s, args.seed, i, out);
        hook.spans.clear();
        setRegistry(true);
        Pass pass = samplePass(traced, args.seed, i, out);
        setRegistry(false);
        ++passes;
        out.attempted += 2;
        out.failed += (plain.ok ? 0 : 1) + (pass.ok ? 0 : 1);
        ratio.push_back(pass.ms / plain.ms);
        factor_ms.push_back(plain.job_ms[0]);
        valid += plain.factor_valid + pass.factor_valid;
        reads += plain.factor_reads + pass.factor_reads;
        fixed += pass.vars_fixed;
        logical += pass.vars_logical;

        const double sampled = hook.spans.totalMs("anneal.sample");
        double fix = 0;
        for (size_t k = 0; k < s.jobs.size(); ++k) {
            if (!s.jobs[k].ro.reduce)
                continue;
            auto t0 = Clock::now();
            embed::fixVariables(pinned[k]);
            fix += msSince(t0);
        }
        fix_ms.push_back(fix);
        sample_ms.push_back(sampled);
        decode_ms.push_back(pass.ms - sampled - fix);
        flips += registryCount("anneal.kernel.flips");
        packed += registryCount("anneal.kernel.packed_passes");
        tasks += registryCount("exec.tasks");
        steals += registryCount("exec.steal");
        stats::Registry::global().reset();
    }
    const double n = static_cast<double>(passes);
    double sample_total = 0;
    for (double ms : sample_ms)
        sample_total += ms;
    out.set("anneal.sample_ms", median(sample_ms), "ms");
    out.set("anneal.flips_per_s", flips / (sample_total / 1e3), "1/s");
    out.set("anneal.packed_passes", packed / n, "count");
    out.set("exec.tasks", tasks / n, "count");
    out.set("exec.steal", steals / n, "count");
    out.set("embed.fix_ms", median(fix_ms), "ms");
    out.set("embed.vars_fixed_frac",
            static_cast<double>(fixed) / static_cast<double>(logical),
            "ratio");
    out.set("core.decode_ms", median(decode_ms), "ms");
    double vars = 0, terms = 0;
    for (const auto &j : s.jobs) {
        vars += j.exe->compiled().assembled.model.numVars();
        terms += j.exe->compiled().assembled.model.numTerms();
    }
    out.set("ising.logical_vars", vars, "count");
    out.set("ising.logical_terms", terms, "count");
    // Factoring success probability, pooled over every pass, and
    // TTS(0.99) from the untraced factoring runs.
    const double p = static_cast<double>(valid) / static_cast<double>(reads);
    const double per_read = median(factor_ms) / s.jobs[0].ro.common.num_reads;
    out.set("success_prob", p, "ratio");
    out.set("tts99_ms",
            p >= 0.99 ? per_read : per_read * std::log(0.01) / std::log1p(-p),
            "ms");
    out.set("trace.overhead_frac", median(ratio) - 1, "ratio");
}

} // namespace

Outcome
runCompile(const Args &args)
{
    Outcome out;
    double setup_s = 0;
    CompileState s = setUpRepeatedly<CompileState>(
        [&] { return setUpCompile(args); }, &setup_s);
    if (args.trace) {
        traceCompile(args, s, out);
        return out;
    }
    std::mt19937_64 rng(mixSeed(args.seed, 1));
    std::vector<double> op_ms;
    double ok_ms = 0;
    uint64_t ok_ops = 0;
    auto start = Clock::now();
    while (timeLeft(start, args)) {
        std::vector<core::CompileResult> results;
        results.reserve(s.programs.size());
        auto t0 = Clock::now();
        for (const auto &p : s.programs)
            results.push_back(core::compile(p.source, p.opts));
        const double ms = msSince(t0);
        op_ms.push_back(ms);
        ++out.attempted;
        if (checkCompilePass(s, results, rng, out)) {
            ++ok_ops;
            ok_ms += ms;
        } else {
            ++out.failed;
        }
    }
    checkExactGroundStates(out);
    setEndToEnd(out, op_ms, setup_s, ok_ops / (ok_ms / 1e3));
    return out;
}

Outcome
runEmbed(const Args &args)
{
    Outcome out;
    double setup_s = 0;
    EmbedState s = setUpRepeatedly<EmbedState>(
        [&] { return setUpEmbed(args); }, &setup_s);
    if (args.trace) {
        traceEmbed(args, s, out);
    } else {
        std::vector<double> op_ms;
        double ok_ms = 0;
        uint64_t ok_ops = 0;
        auto start = Clock::now();
        for (uint64_t i = 0; timeLeft(start, args); ++i) {
            EmbedOp op = embedOnce(s.prog, mixSeed(args.seed, 2, i), out);
            op_ms.push_back(op.cold_ms);
            ++out.attempted;
            if (op.ok) {
                ++ok_ops;
                ok_ms += op.cold_ms;
            } else {
                ++out.failed;
            }
        }
        setEndToEnd(out, op_ms, setup_s, ok_ops / (ok_ms / 1e3));
    }
    fs::remove_all(s.cache_root);
    return out;
}

Outcome
runSample(const Args &args)
{
    Outcome out;
    registerTimedSamplers();
    double setup_s = 0;
    SampleState s = setUpRepeatedly<SampleState>(
        [&] { return setUpSample(args); }, &setup_s);
    if (args.inject_layer == "sampler") {
        // Self-test: delay every sample() call by a fraction of that
        // call's own median.
        useTimedSamplers(s);
        SamplerHook &hook = samplerHook();
        hook.spans.clear();
        for (uint64_t i = 0; i < 3; ++i)
            samplePass(s, args.seed, 1000 + i, out);
        for (const auto &key : hook.spans.names())
            if (key.rfind("anneal.sample|", 0) == 0)
                hook.delay_ms[key] =
                    args.inject_frac * hook.spans.medianMs(key);
    }
    if (args.trace) {
        traceSample(args, s, out);
        traceService(args, out);
        return out;
    }
    std::vector<double> op_ms;
    double ok_ms = 0;
    uint64_t ok_ops = 0;
    auto start = Clock::now();
    for (uint64_t i = 0; timeLeft(start, args); ++i) {
        Pass pass = samplePass(s, args.seed, i, out);
        op_ms.push_back(pass.ms);
        ++out.attempted;
        if (pass.ok) {
            ++ok_ops;
            ok_ms += pass.ms;
        } else {
            ++out.failed;
        }
    }
    setEndToEnd(out, op_ms, setup_s, ok_ops / (ok_ms / 1e3));
    return out;
}

} // namespace qacbench
