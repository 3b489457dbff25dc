/**
 * @file
 * The Verilog frontend adapter: synthesis (the Yosys step) ->
 * sequential unrolling -> ABC-style optimization -> technology
 * mapping -> EDIF emission -> edif2qmasm.  This is the
 * language-specific half of the original compile() pipeline, behind
 * the core::Frontend registry.
 */

#include "qac/core/frontend.h"

#include "qac/cells/gate.h"
#include "qac/edif/writer.h"
#include "qac/netlist/opt.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace qac::core {

namespace {

// Cell-type histogram of the final mapped netlist (the paper's Table 5
// mix), published under netlist.cells.<NAME>.
void
recordCellHistogram(const netlist::Netlist &nl)
{
    if (!stats::Registry::global().enabled())
        return;
    size_t hist[cells::kNumGateTypes] = {};
    for (const auto &g : nl.gates())
        ++hist[static_cast<size_t>(g.type)];
    for (size_t t = 0; t < cells::kNumGateTypes; ++t) {
        if (hist[t] == 0)
            continue;
        stats::gauge(std::string("netlist.cells.") +
                         cells::gateInfo(static_cast<cells::GateType>(t)).name,
                     hist[t]);
    }
}

class VerilogFrontend : public Frontend
{
  public:
    std::string name() const override { return "verilog"; }

    FrontendOutput
    parse(const std::string &source,
          const CompileOptions &opts) const override
    {
        const verilog::FrontendOptions &fo = opts.verilogOpts();
        FrontendOutput out;

        // 1. Synthesis (the Yosys step).
        verilog::SynthOptions sopts;
        sopts.top_params = fo.top_params;
        netlist::Netlist nl;
        {
            stats::ScopedTimer t("compile.synth");
            nl = verilog::synthesizeSource(source, fo.top, sopts);
        }

        // 2. Sequential unrolling (Section 4.3.3).
        if (nl.isSequential()) {
            if (fo.unroll_steps == 0)
                fatal("module '%s' is sequential; set unroll_steps",
                      fo.top.c_str());
            stats::ScopedTimer t("compile.unroll");
            nl = netlist::unrollSequential(nl, fo.unroll_steps,
                                           fo.unroll);
        }

        // 3. ABC-style optimization and technology mapping.
        if (fo.optimize) {
            stats::ScopedTimer t("compile.opt");
            netlist::optimize(nl);
        }
        if (fo.do_techmap) {
            {
                stats::ScopedTimer t("compile.techmap");
                netlist::techMap(nl, fo.techmap);
            }
            if (fo.optimize) {
                stats::ScopedTimer t("compile.opt");
                netlist::optimize(nl);
            }
        }

        // 4. EDIF: the text is the interchange artifact (stored in .qo
        // files, printed by --emit-edif), and edif2qmasm consumes the
        // netlist it denotes -- equal to readEdif(text), as edif_test
        // checks, without parsing the text back.
        {
            stats::ScopedTimer t("compile.edif_write");
            out.edif_text = edif::writeEdif(nl);
        }
        {
            stats::ScopedTimer t("compile.edif_read");
            out.netlist = edif::denotedNetlist(nl);
        }
        recordCellHistogram(out.netlist);

        // 5. edif2qmasm.
        {
            stats::ScopedTimer t("compile.edif2qmasm");
            out.program = qmasm::netlistToQmasm(out.netlist);
        }
        {
            // Count the main program without the standard-cell macros,
            // the way Section 6.1 reports "736 lines of QMASM
            // (excluding the 232 lines in the standard-cell library)".
            qmasm::Program main_only;
            main_only.statements = out.program.statements;
            out.qmasm_lines = main_only.lineCount();
            static const size_t stdcell_lines =
                countLines(qmasm::stdcellText());
            out.stdcell_lines = stdcell_lines;
        }
        return out;
    }
};

} // namespace

void
registerVerilogFrontend()
{
    registerFrontend(
        "verilog", [] { return std::make_unique<VerilogFrontend>(); },
        {"v"});
}

} // namespace qac::core
