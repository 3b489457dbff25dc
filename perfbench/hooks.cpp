#include "hooks.h"

#include "qac/anneal/sampler.h"
#include "qac/core/frontend.h"
#include "qac/dimacs/dimacs.h"
#include "qac/dimacs/lower.h"
#include "qac/edif/reader.h"
#include "qac/edif/writer.h"
#include "qac/netlist/opt.h"
#include "qac/netlist/techmap.h"
#include "qac/netlist/unroll.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/sim/xlint.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace qacbench {

using namespace qac;

namespace {

// The Verilog frontend's half of core::compile, call for call (see
// src/qac/core/verilog_frontend.cpp); spans go to "<tag>|<layer>".
core::FrontendOutput
verilogLayers(const std::string &source, const core::CompileOptions &opts,
              Spans *spans, const std::string &tag, Counts *counts,
              double edif_read_delay_ms)
{
    const verilog::FrontendOptions &fo = opts.verilogOpts();
    auto span = [&](const char *layer, auto &&f) -> decltype(auto) {
        return timed(spans, tag + "|" + layer, f);
    };
    core::FrontendOutput out;
    verilog::SynthOptions sopts;
    sopts.top_params = fo.top_params;
    netlist::Netlist nl = span("verilog.synth", [&] {
        return verilog::synthesizeSource(source, fo.top, sopts);
    });
    if (counts)
        (*counts)["verilog.gates"] += nl.numGates();
    if (nl.isSequential()) {
        if (fo.unroll_steps == 0)
            fatal("module '%s' is sequential; set unroll_steps",
                  fo.top.c_str());
        nl = span("netlist.unroll", [&] {
            return netlist::unrollSequential(nl, fo.unroll_steps,
                                             fo.unroll);
        });
    }
    if (fo.optimize)
        span("netlist.opt", [&] { netlist::optimize(nl); });
    if (fo.do_techmap) {
        span("netlist.techmap", [&] { netlist::techMap(nl, fo.techmap); });
        if (fo.optimize)
            span("netlist.opt", [&] { netlist::optimize(nl); });
    }
    out.edif_text = span("edif.write", [&] { return edif::writeEdif(nl); });
    out.netlist = span("edif.read", [&] {
        if (edif_read_delay_ms > 0)
            busyWaitMs(edif_read_delay_ms);
        return edif::readEdif(out.edif_text);
    });
    out.program = span("qmasm.edif2qmasm", [&] {
        return qmasm::netlistToQmasm(out.netlist);
    });
    qmasm::Program main_only;
    main_only.statements = out.program.statements;
    out.qmasm_lines = main_only.lineCount();
    out.stdcell_lines = countLines(qmasm::stdcellText());
    if (counts) {
        (*counts)["netlist.gates"] += out.netlist.numGates();
        (*counts)["edif.bytes"] += out.edif_text.size();
    }
    return out;
}

class DelayedVerilogFrontend : public core::Frontend
{
  public:
    explicit DelayedVerilogFrontend(std::map<std::string, double> delay)
        : delay_(std::move(delay))
    {}

    std::string name() const override { return "verilog"; }

    core::FrontendOutput
    parse(const std::string &source,
          const core::CompileOptions &opts) const override
    {
        auto it = delay_.find(opts.verilogOpts().top);
        return verilogLayers(source, opts, nullptr, "", nullptr,
                             it == delay_.end() ? 0.0 : it->second);
    }

  private:
    std::map<std::string, double> delay_;
};

class TimedSampler : public anneal::Sampler
{
  public:
    TimedSampler(std::unique_ptr<anneal::Sampler> inner, std::string key,
                 bool small)
        : inner_(std::move(inner)), key_(std::move(key)), small_(small)
    {}

    anneal::SampleSet
    sample(const ising::IsingModel &model) const override
    {
        SamplerHook &hook = samplerHook();
        const std::string key =
            format("anneal.sample|%s|%zu", key_.c_str(), model.numVars());
        auto delay = hook.delay_ms.find(key);
        auto t0 = Clock::now();
        if (delay != hook.delay_ms.end())
            busyWaitMs(delay->second);
        anneal::SampleSet set = inner_->sample(model);
        const double ms = msSince(t0);
        hook.spans.add(key, ms);
        hook.spans.add("anneal.sample", ms);
        hook.spans.add(small_ ? "anneal.sample.small"
                              : "anneal.sample.packed",
                       ms);
        return set;
    }

  private:
    std::unique_ptr<anneal::Sampler> inner_;
    std::string key_;
    bool small_; ///< fewer than 8 reads: the per-read scalar SA path
};

} // namespace

core::CompileResult
layeredCompile(const Program &p, Spans *spans, Counts *counts,
               double edif_read_delay_ms)
{
    const core::CompileOptions &opts = p.opts;
    auto span = [&](const char *layer, auto &&f) -> decltype(auto) {
        return timed(spans, p.name + "|" + layer, f);
    };
    core::CompileResult res;
    res.stats.source_lines = countLines(p.source);
    core::FrontendOutput out;
    if (opts.frontend == "dimacs") {
        res.frontend = "dimacs";
        dimacs::Instance inst = span(
            "dimacs.parse", [&] { return dimacs::parseDimacs(p.source); });
        dimacs::Lowered lowered = span("dimacs.lower", [&] {
            return dimacs::lower(inst, opts.dimacsOpts());
        });
        out.program = std::move(lowered.program);
        out.qmasm_lines = out.program.lineCount();
        out.dimacs_decode = std::move(lowered.decode);
    } else {
        res.frontend = "verilog";
        out = verilogLayers(p.source, opts, spans, p.name, counts,
                            edif_read_delay_ms);
    }
    res.netlist = std::move(out.netlist);
    res.edif_text = std::move(out.edif_text);
    res.qmasm_program = std::move(out.program);
    res.dimacs_decode = std::move(out.dimacs_decode);
    res.stats.qmasm_lines = out.qmasm_lines;
    res.stats.stdcell_lines = out.stdcell_lines;
    res.stats.edif_lines =
        res.edif_text.empty() ? 0 : countLines(res.edif_text);
    if (!res.netlist.ports().empty())
        span("sim.xlint",
             [&] { sim::xLint(res.netlist, /*warn_offenders=*/true); });
    res.assembled = span("qmasm.assemble", [&] {
        return qmasm::assemble(res.qmasm_program, opts.assemble);
    });
    res.stats.gates = res.netlist.numGates();
    res.stats.logical_vars = res.assembled.model.numVars();
    res.stats.logical_terms = res.assembled.model.numTerms();
    if (counts) {
        (*counts)["qmasm.statements"] += res.qmasm_program.statements.size();
        (*counts)["ising.logical_vars"] += res.stats.logical_vars;
        (*counts)["ising.logical_terms"] += res.stats.logical_terms;
    }
    return res;
}

const std::vector<std::string> &
compileLayers()
{
    static const std::vector<std::string> layers = {
        "verilog.synth",    "netlist.unroll",  "netlist.opt",
        "netlist.techmap",  "edif.write",      "edif.read",
        "qmasm.edif2qmasm", "dimacs.parse",    "dimacs.lower",
        "sim.xlint",        "qmasm.assemble"};
    return layers;
}

void
registerDelayedVerilogFrontend(std::map<std::string, double> delay)
{
    core::registerFrontend("qacbench.verilog", [delay] {
        return std::make_unique<DelayedVerilogFrontend>(delay);
    });
}

SamplerHook &
samplerHook()
{
    static SamplerHook hook;
    return hook;
}

void
registerTimedSamplers()
{
    for (std::string inner : {"sa", "chainflip"}) {
        anneal::registerSampler(
            "qacbench." + inner, [inner](const anneal::SamplerOpts &o) {
                return std::make_unique<TimedSampler>(
                    anneal::makeSampler(inner, o),
                    format("%s|%u", inner.c_str(), o.common.num_reads),
                    o.common.num_reads < 8);
            });
    }
}

} // namespace qacbench
