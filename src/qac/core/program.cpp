#include "qac/core/program.h"

#include <algorithm>
#include <optional>

#include "qac/anneal/descent.h"
#include "qac/anneal/sampler.h"
#include "qac/ising/compiled.h"
#include "qac/embed/roof_duality.h"
#include "qac/netlist/simulate.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/stats/registry.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/analyze.h"
#include "qac/telemetry/chain_stats.h"
#include "qac/telemetry/telemetry.h"
#include "qac/util/logging.h"

namespace qac::core {

Executable::Executable(CompileResult compiled)
    : compiled_(std::move(compiled))
{}

void
Executable::pinPort(const std::string &port, uint64_t value)
{
    for (auto &p : pinsForPort(compiled_.netlist, port, value))
        pins_.push_back(std::move(p));
}

void
Executable::pinBit(const std::string &symbol, bool value)
{
    if (!compiled_.assembled.hasSymbol(symbol))
        fatal("pin: unknown symbol '%s'", symbol.c_str());
    pins_.push_back({symbol, value});
}

void
Executable::pinDirective(const std::string &directive)
{
    for (auto &p : parsePinDirective(directive, compiled_.netlist))
        pins_.push_back(std::move(p));
}

void
Executable::clearPins()
{
    pins_.clear();
}

ising::IsingModel
Executable::pinnedModel(const std::vector<PinSpec> &pins) const
{
    ising::IsingModel model = compiled_.assembled.model;
    const auto &adj = model.adjacency();
    for (const auto &pin : pins) {
        uint32_t v = compiled_.assembled.var(pin.symbol);
        // Strong enough to dominate the variable's local energy: the
        // pinned value then holds in every ground state and the
        // roof-duality pass can elide the qubit (Section 4.4).
        double mass = std::abs(compiled_.assembled.model.linear(v));
        for (const auto &[j, w] : adj[v]) {
            (void)j;
            mass += std::abs(w);
        }
        double strength = mass + 1.0;
        model.addLinear(v, pin.value ? -strength : strength);
    }
    return model;
}

bool
Executable::RunResult::hasValid() const
{
    for (const auto &c : candidates)
        if (c.valid)
            return true;
    return false;
}

const Executable::Candidate &
Executable::RunResult::bestValid() const
{
    for (const auto &c : candidates)
        if (c.valid)
            return c;
    fatal("no valid candidate in run result");
}

std::vector<const Executable::Candidate *>
Executable::RunResult::validCandidates() const
{
    std::vector<const Candidate *> out;
    for (const auto &c : candidates)
        if (c.valid)
            out.push_back(&c);
    return out;
}

double
Executable::RunResult::validFraction() const
{
    if (total_reads == 0)
        return 0.0;
    uint64_t hits = 0;
    for (const auto &c : candidates)
        if (c.valid)
            hits += c.occurrences;
    return static_cast<double>(hits) /
        static_cast<double>(total_reads);
}

Executable::RunResult
Executable::run(const RunOptions &opts) const
{
    // Effective pins: the Executable's bound state plus the request's
    // directives.  Requests carry pins by directive so the remote path
    // needs no mutable Executable.
    std::vector<PinSpec> pins = pins_;
    for (const auto &directive : opts.pins)
        for (auto &p : parsePinDirective(directive, compiled_.netlist))
            pins.push_back(std::move(p));

    // Replay contract: (seed, request id) -> effective base seed via
    // the counter-based stream family; read k then draws from
    // streamAt(effective, k).  Batching and threads never enter.
    const uint64_t effective_seed =
        service::requestSeed(opts.common.seed, opts.request_id);

    ising::IsingModel logical = pinnedModel(pins);

    // Optional a-priori elision.
    embed::FixResult fix;
    const ising::IsingModel *to_solve = &logical;
    if (opts.reduce) {
        fix = embed::fixVariables(logical);
        to_solve = &fix.reduced;
    }

    // Optional physical realization.
    std::optional<embed::EmbeddedModel> em;
    if (opts.use_physical) {
        if (!compiled_.hardware)
            fatal("run: use_physical requires a Chimera-target compile");
        if (opts.reduce || !compiled_.embedding) {
            // The variable set changed (or no embedding was computed):
            // embed the model actually being solved.
            std::vector<std::pair<uint32_t, uint32_t>> edges;
            for (const auto &t : to_solve->quadraticTerms())
                edges.emplace_back(t.i, t.j);
            auto emb = embed::findEmbedding(edges, to_solve->numVars(),
                                            *compiled_.hardware);
            if (!emb)
                fatal("run: embedding failed");
            em = embed::embedModel(*to_solve, *emb,
                                   *compiled_.hardware);
        } else {
            em = embed::embedModel(*to_solve, *compiled_.embedding,
                                   *compiled_.hardware);
        }
    }
    const ising::IsingModel &sample_model =
        em ? em->physical : *to_solve;

    // Sample through the factory; no concrete annealer classes here.
    std::string solver = opts.solver;
    if (solver == "sa" && em) {
        // Embedded landscapes need composite chain moves; plain
        // single-flip SA cannot cross the chain barriers the quantum
        // annealer tunnels through.
        solver = "chainflip";
    }
    anneal::SamplerOpts sopts;
    sopts.common = opts.common;
    sopts.common.seed = effective_seed;
    sopts.sweeps = opts.sweeps;
    sopts.greedy_polish = true; // mirrors D-Wave postprocessing
    if (em)
        sopts.chains = em->dense_chains;
    // makeSampler throws a typed UnknownSolverError on a bad name.
    auto sampler = anneal::makeSampler(solver, sopts);
    const uint64_t sample_t0 = stats::Trace::nowNs();
    anneal::SampleSet set = sampler->sample(sample_model);
    const uint64_t sample_elapsed = stats::Trace::nowNs() - sample_t0;

    // Map each sample back to logical space and validate.
    RunResult out;
    out.total_reads = set.totalReads();
    out.vars_sampled = sample_model.numVars();
    out.vars_fixed = opts.reduce ? fix.numFixed() : 0;

    std::map<ising::SpinVector, size_t> dedup;
    uint64_t weighted_breaks = 0;
    // Per-chain break tallies (weighted by occurrences) and repair
    // outcomes feed the anneal.chains.* stats and the telemetry
    // "chains" record.
    std::vector<uint64_t> chain_breaks_w;
    std::vector<uint32_t> broken_index;
    uint64_t repaired_samples = 0;
    double repair_gain = 0.0;
    // Chain-break repair runs once per distinct sample; compile the
    // logical model into the CSR kernel so each repair descends on
    // incremental fields instead of the adjacency lists.
    std::optional<ising::CompiledModel> repair_kernel;
    std::optional<ising::LocalFieldState> repair_state;
    if (em) {
        repair_kernel.emplace(*to_solve);
        repair_state.emplace(*repair_kernel);
        chain_breaks_w.assign(em->dense_chains.size(), 0);
    }
    for (const auto &s : set.samples()) {
        size_t breaks = 0;
        ising::SpinVector solved =
            em ? em->unembed(s.spins, &breaks, &broken_index)
               : s.spins;
        weighted_breaks += breaks * s.num_occurrences;
        if (em) {
            for (uint32_t c : broken_index)
                chain_breaks_w[c] += s.num_occurrences;
            // Repair chain-break damage in logical space — the
            // classical postprocessing D-Wave systems apply by default.
            repair_state->reset(solved);
            double gained = anneal::greedyDescent(*repair_state);
            solved = repair_state->spins();
            if (breaks > 0) {
                ++repaired_samples;
                repair_gain += gained;
            }
        }
        ising::SpinVector full =
            opts.reduce ? fix.lift(solved) : solved;
        auto [it, inserted] =
            dedup.emplace(full, out.candidates.size());
        if (!inserted) {
            out.candidates[it->second].occurrences +=
                s.num_occurrences;
            continue;
        }
        Candidate c;
        c.logical_spins = full;
        c.energy = logical.energy(full);
        c.occurrences = s.num_occurrences;
        c.chain_breaks = breaks;
        c.values = compiled_.assembled.visibleValues(full);
        bool ok = compiled_.assembled.checkAsserts(full);
        for (const auto &pin : pins) {
            if (compiled_.assembled.symbolValue(full, pin.symbol) !=
                pin.value)
                ok = false;
        }
        if (compiled_.dimacs_decode) {
            // DIMACS decode: reconstruct the model line and the
            // clause-satisfaction account; validity means every hard
            // clause holds (plus any pins, checked above).
            const auto &dec = *compiled_.dimacs_decode;
            auto boolOf = [&](uint32_t v) {
                // Variables in no clause have no spin; report false.
                const std::string sym = dimacs::varSymbol(v);
                return compiled_.assembled.hasSymbol(sym) &&
                       compiled_.assembled.symbolValue(full, sym);
            };
            dimacs::ClauseEval ev =
                dimacs::evaluateClauses(dec, boolOf);
            c.model_line = dimacs::modelLine(dec, boolOf);
            c.clauses_satisfied = ev.clauses_satisfied;
            c.clauses_total = ev.clauses_total;
            c.weight_violated = ev.violated_weight;
            ok = ok && ev.hardOk();
        }
        c.valid = ok;
        out.candidates.push_back(std::move(c));
    }
    std::stable_sort(out.candidates.begin(), out.candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.energy < b.energy;
                     });
    if (em && out.total_reads > 0 && !em->dense_chains.empty()) {
        // Fraction of (read, chain) pairs whose chain disagreed
        // internally — the D-Wave chain-break rate.
        stats::record("anneal.chain_break_rate",
                      static_cast<double>(weighted_breaks) /
                          (static_cast<double>(out.total_reads) *
                           static_cast<double>(em->dense_chains.size())));
    }

    const bool observing = stats::Registry::global().enabled() ||
        telemetry::Collector::global().enabled();
    if (observing && out.total_reads > 0) {
        if (em && !em->dense_chains.empty()) {
            telemetry::ChainReport report = telemetry::buildChainReport(
                em->dense_chains, chain_breaks_w, out.total_reads);
            report.repaired_samples = repaired_samples;
            report.repair_gain = repair_gain;
            telemetry::recordChainStats(report);
            if (telemetry::Collector::global().enabled())
                telemetry::Collector::global().addRecord(
                    telemetry::chainReportJson(solver, report));
        }
        telemetry::AnalyzeOptions aopts;
        aopts.elapsed_ns = sample_elapsed;
        aopts.sweeps_per_read = opts.sweeps;
        telemetry::Analysis an = telemetry::analyze(set, aopts);
        telemetry::recordAnalysisStats(an);
        if (telemetry::Collector::global().enabled())
            telemetry::Collector::global().addRecord(
                telemetry::analysisJson(solver, an));
    }
    return out;
}

uint64_t
Executable::portValue(const Candidate &c, const std::string &port) const
{
    const netlist::Port *p = compiled_.netlist.findPort(port);
    if (!p)
        fatal("portValue: no port named '%s'", port.c_str());
    uint64_t value = 0;
    for (size_t i = 0; i < p->bits.size(); ++i) {
        std::string sym = qmasm::portBitSymbol(*p, i);
        auto it = c.values.find(sym);
        if (it == c.values.end())
            fatal("portValue: symbol '%s' missing from candidate",
                  sym.c_str());
        if (it->second)
            value |= (uint64_t{1} << i);
    }
    return value;
}

std::map<std::string, uint64_t>
Executable::evaluate(const std::map<std::string, uint64_t> &inputs) const
{
    netlist::Simulator sim(compiled_.netlist);
    for (const auto &[name, value] : inputs)
        sim.setInput(name, value);
    sim.eval();
    std::map<std::string, uint64_t> out;
    for (const auto &p : compiled_.netlist.ports())
        if (p.dir == netlist::PortDir::Output)
            out[p.name] = sim.output(p.name);
    return out;
}

} // namespace qac::core
