/**
 * @file
 * qacc — the QAC command-line compiler driver.
 *
 * Plays the role of the paper's tool pipeline (yosys | edif2qmasm |
 * qmasm) in one binary:
 *
 *   qacc design.v --top mult                       # compile, print stats
 *   qacc design.v --top mult -o design.qo          # emit a .qo object
 *   qacc design.v --top mult --emit-edif out.edif  # dump EDIF
 *   qacc design.v --top mult --emit-qmasm out.qmasm
 *   qacc design.v --top mult --emit-minizinc out.mzn
 *   qacc design.v --top mult --emit-qubo out.qubo
 *   qacc design.v --top mult --run --pin "C[7:0] := 10001111"
 *   qacc design.v --top count --unroll 4 --run ...
 *   qacc design.v --top mult --target chimera --run --physical ...
 *   qacc design.v --stats --trace-json=trace.json  # observability
 *
 * A .qo object (artifact subsystem) snapshots the whole compile —
 * including the minor embedding — for later execution via
 * `qma run design.qo`.  Chimera-target compiles also memoize the
 * embedding stage through the on-disk cache (--cache-dir/--no-cache).
 *
 * --top may be omitted when the source defines exactly one module.
 * Options mirror qmasm where they overlap (--pin, --reads, --stats,
 * --quiet).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/artifact/qo.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/core/frontend.h"
#include "qac/core/program.h"
#include "qac/exec/exec.h"
#include "qac/qmasm/formats.h"
#include "qac/sim/diff_check.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "qac/verilog/parser.h"
#include "tools/tool_options.h"

namespace {

using namespace qac;

struct Args
{
    std::string input;
    std::string lang; ///< frontend key; "" = infer from extension
    std::string top;
    size_t unroll = 0;
    bool chimera = false;
    uint32_t chimera_size = 16;
    bool run = false;
    bool verify = false;
    bool physical = false;
    std::vector<std::string> pins;
    /** Unified solver parameters (service layer): the same struct a
     *  qmad request carries, so CLI and daemon defaults agree. */
    service::SampleRequest req;
    std::string emit_qo;
    std::string emit_edif, emit_qmasm, emit_minizinc, emit_qubo;
    tools::CommonOptions common;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <design.v|design.cnf|design.wcnf> [options]\n"
        "  --lang <frontend>     source language (%s); inferred from\n"
        "                        the file extension when omitted\n"
        "  --top <module>        top module (verilog; inferred if "
        "unique)\n"
        "  --unroll <N>          unroll sequential logic for N steps\n"
        "  --target chimera      minor-embed onto a C16 Chimera graph\n"
        "  --chimera-size <M>    use a C_M graph, M <= 64 (default 16)\n"
        "  -o, --emit-qo <file>  write a compiled .qo object "
        "(run with: qma run <file>)\n"
        "  --emit-edif <file>    write the EDIF netlist\n"
        "  --emit-qmasm <file>   write the QMASM program\n"
        "  --emit-minizinc <f>   write a MiniZinc model\n"
        "  --emit-qubo <file>    write a qbsolv .qubo file\n"
        "  --run                 anneal and report solutions\n"
        "  --verify              differential check: event-simulate "
        "the design\n"
        "                        and compare against the exact ground "
        "states\n"
        "  --physical            sample the embedded physical model\n"
        "  --pin \"SYM := VAL\"    bind ports (repeatable; qmasm syntax)\n"
        "  --solver %s\n"
        "%s%s",
        argv0, core::frontendNamesJoined().c_str(),
        anneal::samplerNamesJoined().c_str(),
        tools::paramsUsage(), tools::commonUsage());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (tools::parseCommonFlag(args.common, argc, argv, i))
            continue;
        if (tools::parseParamFlag(args.req, argc, argv, i))
            continue;
        if (a == "--lang")
            args.lang = need(i);
        else if (a == "--top")
            args.top = need(i);
        else if (a == "--unroll")
            args.unroll = static_cast<size_t>(
                tools::parseUint("--unroll", need(i)));
        else if (a == "--target") {
            std::string t = need(i);
            if (t != "chimera" && t != "logical")
                usage(argv[0]);
            args.chimera = (t == "chimera");
        } else if (a == "--chimera-size")
            args.chimera_size = static_cast<uint32_t>(tools::parseUint(
                "--chimera-size", need(i), chimera::kMaxChimeraSize));
        else if (a == "-o" || a == "--emit-qo")
            args.emit_qo = need(i);
        else if (a == "--emit-edif")
            args.emit_edif = need(i);
        else if (a == "--emit-qmasm")
            args.emit_qmasm = need(i);
        else if (a == "--emit-minizinc")
            args.emit_minizinc = need(i);
        else if (a == "--emit-qubo")
            args.emit_qubo = need(i);
        else if (a == "--run")
            args.run = true;
        else if (a == "--verify")
            args.verify = true;
        else if (a == "--physical")
            args.physical = true;
        else if (a == "--pin")
            args.pins.push_back(need(i));
        else if (a == "--help" || a == "-h")
            usage(argv[0]);
        else if (!a.empty() && a[0] == '-')
            usage(argv[0]);
        else if (args.input.empty())
            args.input = a;
        else
            usage(argv[0]);
    }
    if (args.input.empty())
        usage(argv[0]);
    return args;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << text;
}

/** The single module's name, or fatal when the choice is ambiguous. */
std::string
inferTop(const std::string &source)
{
    verilog::Design d = verilog::parse(source);
    if (d.modules.size() != 1)
        fatal("source defines %zu modules; select one with --top",
              d.modules.size());
    return d.modules.front().name;
}

/** Resolve the frontend key: --lang, else the file extension. */
std::string
resolveLang(const Args &args)
{
    if (!args.lang.empty()) {
        if (!core::hasFrontend(args.lang))
            fatal("unknown language '%s' (available: %s)",
                  args.lang.c_str(),
                  core::frontendNamesJoined().c_str());
        return args.lang;
    }
    std::string lang = core::frontendForPath(args.input);
    if (lang.empty())
        fatal("cannot infer a source language from '%s': no "
              "registered frontend claims its extension (use "
              "--lang <%s>)",
              args.input.c_str(),
              core::frontendNamesJoined().c_str());
    return lang;
}

int
runQacc(Args &args, const char *argv0)
{
    const bool chatty = args.common.verbosity > 0;

    const std::string lang = resolveLang(args);
    args.common.manifest.param("lang", lang);

    std::ifstream in(args.input);
    if (!in)
        fatal("cannot read '%s'", args.input.c_str());
    std::stringstream ss;
    ss << in.rdbuf();

    core::CompileOptions opts;
    if (lang == "verilog") {
        if (args.top.empty()) {
            args.top = inferTop(ss.str());
            args.common.manifest.param("top", args.top);
        }
        auto &vo = opts.verilogOpts();
        vo.top = args.top;
        vo.unroll_steps = args.unroll;
    } else {
        opts.frontend = lang;
        if (!args.top.empty())
            fatal("--top only applies to the verilog frontend");
        if (args.unroll != 0)
            fatal("--unroll only applies to the verilog frontend");
    }
    opts.threads = args.common.threads;
    opts.cache.enabled = !args.common.no_cache;
    opts.cache.dir = args.common.cache_dir;
    if (args.chimera) {
        opts.target = core::Target::Chimera;
        opts.chimera_size = args.chimera_size;
    }
    core::CompileResult compiled = core::compile(ss.str(), opts);

    // Provenance digest of the compiled object (canonical bytes, so
    // this matches a later `qma run` on the emitted .qo file).  Only
    // serialized when a report will actually carry it.
    if (args.common.stats || !args.common.telemetry_file.empty())
        args.common.manifest.qo_digest =
            artifact::qoDigestHex(artifact::serializeQo(compiled));

    if (chatty) {
        const std::string &unit =
            lang == "verilog" ? args.top : args.input;
        if (lang == "verilog")
            std::printf("%s: %zu gates, %zu logical variables, "
                        "%zu terms",
                        unit.c_str(), compiled.stats.gates,
                        compiled.stats.logical_vars,
                        compiled.stats.logical_terms);
        else
            std::printf("%s: %zu logical variables, %zu terms",
                        unit.c_str(), compiled.stats.logical_vars,
                        compiled.stats.logical_terms);
        if (args.chimera)
            std::printf(", %zu physical qubits (max chain %zu)",
                        compiled.stats.physical_qubits,
                        compiled.stats.max_chain_length);
        std::printf("\n");
    }

    if (!args.emit_qo.empty()) {
        std::string err;
        if (!artifact::writeQoFile(args.emit_qo, compiled, &err))
            fatal("cannot write '%s': %s", args.emit_qo.c_str(),
                  err.c_str());
        if (chatty)
            std::printf("wrote %s\n", args.emit_qo.c_str());
    }
    if (!args.emit_edif.empty()) {
        if (compiled.edif_text.empty())
            fatal("--emit-edif: the '%s' frontend produces no EDIF "
                  "netlist", lang.c_str());
        writeFile(args.emit_edif, compiled.edif_text);
    }
    if (!args.emit_qmasm.empty())
        writeFile(args.emit_qmasm,
                  compiled.qmasm_program.toString());
    if (!args.emit_minizinc.empty())
        writeFile(args.emit_minizinc,
                  qmasm::toMiniZinc(compiled.assembled));
    if (!args.emit_qubo.empty())
        writeFile(args.emit_qubo,
                  qmasm::toQuboFile(ising::QuboModel::fromIsing(
                      compiled.assembled.model)));

    if (args.verify) {
        if (compiled.netlist.ports().empty())
            fatal("--verify requires a netlist frontend; '%s' "
                  "produces none", lang.c_str());
        sim::DiffCheckOptions vopts;
        vopts.threads = args.common.threads;
        // Independently derived reference: same synthesis and
        // unrolling, but optimization and techmapping disabled, so
        // those stages are cross-checked instead of assumed correct.
        core::CompileResult reference;
        if (lang == "verilog") {
            core::CompileOptions ropts = opts;
            ropts.target = core::Target::Logical;
            auto &rvo = ropts.verilogOpts();
            rvo.optimize = false;
            rvo.do_techmap = false;
            reference = core::compile(ss.str(), ropts);
            vopts.reference = &reference.netlist;
        }
        sim::DiffReport report = sim::diffCheck(compiled, vopts);
        std::fputs(report.describe().c_str(), stdout);
        if (!report.ok())
            return 1;
    }

    if (!args.run)
        return 0;

    if (!anneal::hasSampler(args.req.solver)) {
        std::fprintf(stderr, "qacc: unknown solver '%s' (expected "
                     "%s)\n", args.req.solver.c_str(),
                     anneal::samplerNamesJoined().c_str());
        usage(argv0);
    }

    core::Executable prog(std::move(compiled));
    for (const auto &pin : args.pins)
        prog.pinDirective(pin);

    // One execution path for every front end: the CLI flags became a
    // service::SampleRequest, exactly what a qmad request carries.
    service::SampleRequest req = args.req;
    req.common.threads = args.common.threads;
    req.use_physical = args.physical;
    if (args.physical)
        req.reduce = false;
    service::SampleResult res = service::runLocal(prog, req);
    if (chatty)
        service::printReport(stdout, res, args.common.verbosity);
    return res.hasValid() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Argument parsing sits inside the try: parseUint() and friends
    // report bad input via fatal(), which must exit cleanly too.
    Args args;
    int ret;
    try {
        args = parseArgs(argc, argv);
        tools::applyCommonOptions(args.common);
        args.common.manifest = telemetry::Manifest::make("qacc");
        args.common.manifest.input = args.input;
        args.common.manifest.seed = args.req.common.seed;
        args.common.manifest.threads = static_cast<uint32_t>(
            exec::resolveThreads(args.common.threads));
        args.common.manifest.param("top", args.top);
        args.common.manifest.param("solver", args.req.solver);
        args.common.manifest.param("reads",
                                   uint64_t{args.req.common.num_reads});
        args.common.manifest.param("sweeps", uint64_t{args.req.sweeps});
        args.common.manifest.param("unroll", uint64_t{args.unroll});
        args.common.manifest.param(
            "target", args.chimera ? "chimera" : "logical");
        if (args.chimera)
            args.common.manifest.param("chimera_size",
                                       uint64_t{args.chimera_size});
        args.common.manifest.param(
            "physical", uint64_t{args.physical ? 1u : 0u});
        if (!args.pins.empty())
            args.common.manifest.param(
                "pins", qac::join(args.pins, "; "));
        ret = runQacc(args, argv[0]);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "qacc: %s\n", e.what());
        ret = 2;
    }
    tools::finishCommonOptions(args.common);
    return ret;
}
