#include "qac/sim/diff_check.h"

#include <memory>
#include <optional>

#include "qac/core/program.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::sim {

namespace {

using netlist::Netlist;
using netlist::Port;
using netlist::PortDir;

uint64_t
maskFor(size_t width)
{
    return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

std::string
inputString(const std::vector<const Port *> &ports,
            const std::vector<uint64_t> &values)
{
    std::string s;
    for (size_t i = 0; i < ports.size(); ++i) {
        if (!s.empty())
            s += " ";
        s += format("%s=%llu", ports[i]->name.c_str(),
                    static_cast<unsigned long long>(values[i]));
    }
    return s;
}

constexpr uint64_t kSampleSeed = 1;
constexpr size_t kMaxMismatches = 8;
constexpr const char *kFallbackSolver = "sa";
constexpr uint32_t kFallbackReads = 256;

} // namespace

std::string
DiffReport::describe() const
{
    std::string s;
    s += format("verify: %llu input vector(s) (%s), %llu ground "
                "state(s) checked%s\n",
                static_cast<unsigned long long>(vectors_checked),
                exhaustive ? "exhaustive" : "sampled",
                static_cast<unsigned long long>(ground_states_checked),
                exact_ground_states
                    ? "" : " (stochastic best-energy fallback; model "
                           "too large for exact enumeration)");
    if (asserts.checked > 0)
        s += format("verify: %zu assert(s) evaluated on simulated "
                    "traces, %zu failed, %zu indeterminate\n",
                    asserts.checked, asserts.failed,
                    asserts.indeterminate);
    if (lint.clean())
        s += "verify: x-lint clean\n";
    else
        s += format("verify: x-lint flagged %zu unresolved net(s) "
                    "(%zu feeding live logic)\n",
                    lint.offenders.size(), lint.numRead());
    for (const auto &m : mismatches)
        s += format("verify: MISMATCH [vector %llu] %s\n",
                    static_cast<unsigned long long>(m.vector_index),
                    m.detail.c_str());
    if (!ok())
        s += format("verify: FAIL — %zu mismatch(es)\n",
                    mismatches.size());
    else if (exact_ground_states)
        s += "verify: PASS — simulator I/O relation matches the "
             "exact ground states\n";
    else
        s += "verify: PASS — simulator I/O relation matches every "
             "minimum-energy sample\n";
    return s;
}

DiffReport
diffCheck(const core::CompileResult &compiled,
          const DiffCheckOptions &opts)
{
    stats::ScopedTimer timer("qac.sim.diff.time");

    if (compiled.netlist.ports().empty())
        fatal("diffCheck: the '%s' frontend produced no netlist to "
              "simulate", compiled.frontend.c_str());
    const Netlist &ref =
        opts.reference ? *opts.reference : compiled.netlist;

    DiffReport report;
    auto addMismatch = [&](uint64_t index, std::string detail) {
        if (report.mismatches.size() < kMaxMismatches)
            report.mismatches.push_back({index, std::move(detail)});
    };
    auto full = [&]() {
        return report.mismatches.size() >= kMaxMismatches;
    };

    // Ports are matched by name between the reference netlist (the
    // semantics oracle) and the compiled one (what the Hamiltonian
    // was lowered from).  Stimulus enumerates the reference's inputs.
    std::vector<const Port *> in_ports, out_ports;
    size_t input_bits = 0;
    for (const auto &p : ref.ports()) {
        if (p.dir == PortDir::Input) {
            in_ports.push_back(&p);
            input_bits += p.width();
        } else {
            out_ports.push_back(&p);
        }
    }
    if (out_ports.empty())
        fatal("diffCheck: netlist '%s' has no output ports to check",
              ref.name().c_str());
    for (const Port *p : in_ports) {
        const Port *cp = compiled.netlist.findPort(p->name);
        if (cp && cp->width() != p->width())
            addMismatch(0, format("input port '%s' is %zu bits in the "
                                  "reference but %zu in the compiled "
                                  "netlist", p->name.c_str(),
                                  p->width(), cp->width()));
        // Absent is fine: optimization eliminated an unused input.
    }
    std::vector<const Port *> checked_outputs;
    for (const Port *p : out_ports) {
        const Port *cp = compiled.netlist.findPort(p->name);
        if (!cp)
            addMismatch(0, format("output port '%s' missing from the "
                                  "compiled netlist",
                                  p->name.c_str()));
        else if (cp->width() != p->width())
            addMismatch(0, format("output port '%s' is %zu bits in "
                                  "the reference but %zu in the "
                                  "compiled netlist", p->name.c_str(),
                                  p->width(), cp->width()));
        else
            checked_outputs.push_back(p);
    }
    for (const auto &p : compiled.netlist.ports())
        if (p.dir == PortDir::Input && !ref.findPort(p.name))
            addMismatch(0, format("compiled netlist has input port "
                                  "'%s' absent from the reference "
                                  "(it will be left unpinned)",
                                  p.name.c_str()));

    report.lint = xLint(ref);
    report.exhaustive = input_bits <= opts.exhaustive_bits &&
                        input_bits < 64;
    const uint64_t num_vectors = report.exhaustive
        ? (uint64_t{1} << input_bits)
        : opts.samples;

    core::Executable ex(compiled);
    EventSimulator sim_ref(ref);
    // When a reference is given, the compiled netlist is simulated
    // too: its trace carries the assert symbols, and comparing it
    // against the reference catches optimizer/techmap bugs directly
    // at simulation speed (no annealing required).
    std::optional<EventSimulator> sim_cmp;
    if (opts.reference && opts.reference != &compiled.netlist)
        sim_cmp.emplace(compiled.netlist);

    Rng rng(kSampleSeed);
    std::vector<uint64_t> in_values(in_ports.size(), 0);
    for (uint64_t vec = 0; vec < num_vectors && !full(); ++vec) {
        // Stimulus: slices of the enumeration value, or fresh draws.
        uint64_t k = vec;
        for (size_t i = 0; i < in_ports.size(); ++i) {
            const size_t w = in_ports[i]->width();
            in_values[i] = report.exhaustive
                ? (k & maskFor(w))
                : (rng.next() & maskFor(w));
            k >>= w;
        }

        // Classical semantics: event-simulate the reference (and the
        // compiled netlist, when distinct).
        for (size_t i = 0; i < in_ports.size(); ++i)
            sim_ref.setInput(in_ports[i]->name, in_values[i]);
        sim_ref.eval();
        if (sim_cmp) {
            for (size_t i = 0; i < in_ports.size(); ++i)
                if (compiled.netlist.findPort(in_ports[i]->name))
                    sim_cmp->setInput(in_ports[i]->name,
                                      in_values[i]);
            sim_cmp->eval();
        }
        ++report.vectors_checked;

        for (const Port *p : checked_outputs) {
            if (!sim_ref.portKnown(p->name)) {
                addMismatch(vec, format(
                    "input %s: simulated output '%s' contains X/Z "
                    "(underconstrained design)",
                    inputString(in_ports, in_values).c_str(),
                    p->name.c_str()));
                continue;
            }
            if (sim_cmp && sim_cmp->portKnown(p->name) &&
                sim_cmp->output(p->name) != sim_ref.output(p->name))
                addMismatch(vec, format(
                    "input %s: compiled netlist simulates %s=%llu "
                    "but the reference says %llu",
                    inputString(in_ports, in_values).c_str(),
                    p->name.c_str(),
                    static_cast<unsigned long long>(
                        sim_cmp->output(p->name)),
                    static_cast<unsigned long long>(
                        sim_ref.output(p->name))));
        }

        // QMASM asserts, checked against the simulated trace itself
        // (not just whatever samples an annealer returns).
        const EventSimulator &asim = sim_cmp ? *sim_cmp : sim_ref;
        AssertTraceResult ar =
            checkAssertsOnState(compiled.assembled, asim);
        if (!ar.ok())
            addMismatch(vec, format(
                "input %s: %zu assert(s) failed / %zu "
                "indeterminate on the simulated trace%s%s",
                inputString(in_ports, in_values).c_str(),
                ar.failed, ar.indeterminate,
                ar.offenders.empty() ? "" : ": ",
                ar.offenders.empty()
                    ? "" : ar.offenders.front().c_str()));
        report.asserts.merge(ar);
        if (full())
            break;

        // Quantum semantics: pin the same inputs and enumerate the
        // exact ground states of the compiled Hamiltonian.
        ex.clearPins();
        for (size_t i = 0; i < in_ports.size(); ++i)
            if (compiled.netlist.findPort(in_ports[i]->name))
                ex.pinPort(in_ports[i]->name, in_values[i]);
        core::Executable::RunOptions ro;
        ro.common.threads = opts.threads;
        if (report.exact_ground_states)
            ro.solver = "exact";
        else {
            ro.solver = kFallbackSolver;
            ro.common.num_reads = kFallbackReads;
        }
        core::Executable::RunResult rr;
        try {
            rr = ex.run(ro);
        } catch (const FatalError &e) {
            // Exact enumeration over capacity: downgrade once to the
            // stochastic fallback and redo this vector.
            if (!report.exact_ground_states)
                throw;
            report.exact_ground_states = false;
            stats::count("qac.sim.diff.sampled_fallback");
            warn("diffCheck: %s; falling back to best-energy "
                 "sampling with '%s'", e.what(), kFallbackSolver);
            ro.solver = kFallbackSolver;
            ro.common.num_reads = kFallbackReads;
            rr = ex.run(ro);
        }
        // Only minimum-energy candidates are ground-state claims; a
        // stochastic fallback also returns excited states.
        if (!rr.candidates.empty()) {
            const double best = rr.candidates.front().energy;
            while (rr.candidates.size() > 1 &&
                   rr.candidates.back().energy > best + 1e-9)
                rr.candidates.pop_back();
        }
        if (rr.candidates.empty()) {
            addMismatch(vec, format(
                "input %s: exact solver returned no ground state",
                inputString(in_ports, in_values).c_str()));
            continue;
        }
        report.ground_states_checked += rr.candidates.size();
        for (const auto &c : rr.candidates) {
            if (!c.valid) {
                addMismatch(vec, format(
                    "input %s: a ground state (energy %.6g) violates "
                    "the program's asserts or pins",
                    inputString(in_ports, in_values).c_str(),
                    c.energy));
                if (full())
                    break;
            }
            for (const Port *p : checked_outputs) {
                if (!sim_ref.portKnown(p->name))
                    continue; // already reported above
                uint64_t want = sim_ref.output(p->name);
                uint64_t got = ex.portValue(c, p->name);
                if (got != want) {
                    addMismatch(vec, format(
                        "input %s: ground state decodes %s=%llu but "
                        "the simulator says %llu",
                        inputString(in_ports, in_values).c_str(),
                        p->name.c_str(),
                        static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(want)));
                    if (full())
                        break;
                }
            }
            if (full())
                break;
        }
    }

    stats::count("qac.sim.diff.vectors", report.vectors_checked);
    stats::count("qac.sim.diff.ground_states",
                 report.ground_states_checked);
    stats::count("qac.sim.diff.mismatches", report.mismatches.size());
    return report;
}

} // namespace qac::sim
