/**
 * @file
 * qma — a standalone QMASM runner (the paper's qmasm tool).
 *
 *   qma program.qmasm --pin "A := true" --run
 *   qma program.qmasm --emit-minizinc out.mzn
 *   qma program.qmasm --run --reads 5000 --solver sqa
 *   qma run design.qo --pin "C[7:0] := 10001111"
 *
 * Mirrors the qmasm behaviours the paper lists in Section 4.3: resolves
 * !include (the built-in stdcell.qmasm plus the input file's
 * directory), accepts --pin to bias variables, "can run a program
 * arbitrarily many times and report statistics on the results", and
 * reports solutions "in terms of the program-specified symbolic names".
 *
 * The `run` subcommand executes a compiled .qo object (artifact
 * subsystem, written by `qacc -o`) without recompiling: the snapshot
 * already carries the logical Ising model, symbol table, and — for
 * Chimera-target compiles — the minor embedding.  At equal seeds its
 * results are bitwise-identical to `qacc --run` on the same design.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/artifact/qo.h"
#include "qac/core/program.h"
#include "qac/exec/exec.h"
#include "qac/service/client.h"
#include "qac/qmasm/assemble.h"
#include "qac/qmasm/formats.h"
#include "qac/qmasm/parser.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/stats/trace.h"
#include "qac/telemetry/analyze.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "tools/tool_options.h"

namespace {

using namespace qac;

struct Args
{
    bool object_mode = false; ///< "qma run <file.qo>"
    bool client_mode = false; ///< "qma client <socket> <object>"
    std::string socket;       ///< qmad socket path (client mode)
    std::string input;
    std::vector<std::string> pins;
    bool run = false;
    /** Unified solver parameters (service layer): the same struct a
     *  qmad request carries, so every mode shares one set of
     *  defaults — local, object, and remote runs are diffable. */
    service::SampleRequest req;
    std::string emit_minizinc, emit_qubo;
    size_t top_solutions = 8;
    tools::CommonOptions common;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <program.qmasm> [options]\n"
                 "       %s run <design.qo> [options]\n"
                 "       %s client <socket> <design.qo|digest> "
                 "[options]\n"
                 "  --pin \"SYM := VAL\"   bias a variable (repeatable)\n"
                 "  --run                 anneal and report statistics\n"
                 "  --solver %s\n"
                 "  --top <N>             solutions to print (default 8)\n"
                 "  --emit-minizinc <f>   convert for classical solution\n"
                 "  --emit-qubo <f>       convert to qbsolv format\n"
                 "%s%s",
                 argv0, argv0, argv0,
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
        if (a == "--pin")
            args.pins.push_back(need(i));
        else if (a == "--run")
            args.run = true;
        else if (a == "--top")
            args.top_solutions = static_cast<size_t>(
                tools::parseUint("--top", need(i)));
        else if (a == "--emit-minizinc")
            args.emit_minizinc = need(i);
        else if (a == "--emit-qubo")
            args.emit_qubo = need(i);
        else if (a == "--help" || a == "-h")
            usage(argv[0]);
        else if (!a.empty() && a[0] == '-')
            usage(argv[0]);
        else if (!args.object_mode && !args.client_mode &&
                 args.input.empty() && a == "run")
            args.object_mode = true;
        else if (!args.object_mode && !args.client_mode &&
                 args.input.empty() && a == "client")
            args.client_mode = true;
        else if (args.client_mode && args.socket.empty())
            args.socket = a;
        else if (args.input.empty())
            args.input = a;
        else
            usage(argv[0]);
    }
    if (args.input.empty() ||
        (args.client_mode && args.socket.empty()))
        usage(argv[0]);
    return args;
}

/**
 * Finish a mode-shared request: pins travel as directives (so the
 * remote path needs no mutable Executable), threads come from the
 * shared --threads flag.
 */
service::SampleRequest
buildRequest(const Args &args)
{
    service::SampleRequest req = args.req;
    req.pins = args.pins;
    req.common.threads = args.common.threads;
    return req;
}

/**
 * `qma run <design.qo>`: execute a compiled object.  The report
 * format deliberately matches `qacc --run` and `qma client` line for
 * line, so the three paths can be diffed directly (and are, in
 * cli_test).
 */
int
runObject(Args &args, const char *argv0)
{
    const bool chatty = args.common.verbosity > 0;

    std::string err;
    auto compiled = artifact::readQoFile(args.input, &err);
    if (!compiled)
        fatal("cannot load '%s': %s", args.input.c_str(), err.c_str());
    if (chatty)
        service::printObjectLine(stdout, args.input,
                                 compiled->stats.logical_vars,
                                 compiled->stats.logical_terms,
                                 compiled->embedded.has_value());

    if (!anneal::hasSampler(args.req.solver)) {
        std::fprintf(stderr, "qma: unknown solver '%s' (expected %s)\n",
                     args.req.solver.c_str(),
                     anneal::samplerNamesJoined().c_str());
        usage(argv0);
    }

    service::SampleRequest req = buildRequest(args);
    // The canonical digest addresses this object in a daemon; carrying
    // it locally too makes the local and remote result records (and
    // their provenance manifests) byte-identical.
    req.object_digest = artifact::qoFileDigestHex(args.input);
    if (args.common.stats || !args.common.telemetry_file.empty())
        args.common.manifest.qo_digest = req.object_digest;

    core::Executable prog(std::move(*compiled));
    service::SampleResult res = service::runLocal(prog, req);
    if (chatty)
        service::printReport(stdout, res, args.common.verbosity);
    return res.hasValid() ? 0 : 1;
}

/**
 * `qma client <socket> <design.qo|digest>`: the same run, served by a
 * qmad daemon.  The object argument may be a local .qo path (digested
 * client-side) or a bare digest advertised by the daemon.  Output is
 * byte-identical to `qma run` on the same object and parameters.
 */
int
runClient(Args &args)
{
    const bool chatty = args.common.verbosity > 0;

    std::string digest = args.input;
    if (std::filesystem::exists(args.input)) {
        digest = artifact::qoFileDigestHex(args.input);
        if (digest.empty())
            fatal("cannot read '%s'", args.input.c_str());
    }

    service::Client client;
    std::string err;
    if (!client.connect(args.socket, &err))
        fatal("%s", err.c_str());

    service::SampleRequest req = buildRequest(args);
    req.object_digest = digest;
    if (args.common.stats || !args.common.telemetry_file.empty())
        args.common.manifest.qo_digest = digest;

    service::SampleResult res;
    std::string msg;
    service::ErrorCode code = client.call(req, &res, &msg);
    if (code != service::ErrorCode::Ok)
        fatal("server: %s (%s)", msg.c_str(),
              service::errorCodeName(code));

    if (chatty) {
        service::printObjectLine(stdout, args.input, res.logical_vars,
                                 res.logical_terms, res.embedded);
        service::printReport(stdout, res, args.common.verbosity);
    }
    return res.hasValid() ? 0 : 1;
}

} // namespace

int
runQma(Args &args, const char *argv0)
{
    const bool chatty = args.common.verbosity > 0;
    {
        std::ifstream in(args.input);
        if (!in)
            fatal("cannot read '%s'", args.input.c_str());
        std::stringstream ss;
        ss << in.rdbuf();

        // Includes resolve against the built-in standard-cell library
        // first, then the input file's directory.
        std::filesystem::path dir =
            std::filesystem::path(args.input).parent_path();
        auto builtin = qmasm::stdcellResolver();
        qmasm::IncludeResolver resolver =
            [&](const std::string &name) -> std::optional<std::string> {
            if (auto text = builtin(name))
                return text;
            std::ifstream f(dir / name);
            if (!f)
                return std::nullopt;
            std::stringstream fs;
            fs << f.rdbuf();
            return fs.str();
        };

        std::string text = ss.str();
        // --pin appends pin statements, exactly like qmasm's flag.
        for (const auto &pin : args.pins)
            text += "\n" + pin + "\n";

        qmasm::Program prog = qmasm::parseProgram(text, resolver);
        qmasm::Assembled assembled = qmasm::assemble(prog);
        if (chatty)
            std::printf("%zu variables, %zu terms (chain strength "
                        "%.2f)\n",
                        assembled.model.numVars(),
                        assembled.model.numTerms(),
                        assembled.chain_strength_used);

        if (!args.emit_minizinc.empty()) {
            std::ofstream out(args.emit_minizinc);
            out << qmasm::toMiniZinc(assembled);
        }
        if (!args.emit_qubo.empty()) {
            std::ofstream out(args.emit_qubo);
            out << qmasm::toQuboFile(
                ising::QuboModel::fromIsing(assembled.model));
        }
        if (!args.run)
            return 0;

        // Every registered sampler is available by name.  A logical
        // model carries no physical chain groups, so "chainflip" here
        // runs with no composite moves (single-qubit relaxation only).
        anneal::SamplerOpts sopts;
        sopts.common = args.req.common;
        sopts.common.threads = args.common.threads;
        // Same replay contract as the service path: a request id
        // selects an independent seed stream.
        sopts.common.seed = service::requestSeed(args.req.common.seed,
                                                args.req.request_id);
        sopts.sweeps = args.req.sweeps;
        if (!anneal::hasSampler(args.req.solver)) {
            std::fprintf(stderr, "qma: unknown solver '%s' (expected "
                         "%s)\n", args.req.solver.c_str(),
                         anneal::samplerNamesJoined().c_str());
            usage(argv0);
        }
        auto sampler = anneal::makeSampler(args.req.solver, sopts);
        const uint64_t t0 = stats::Trace::nowNs();
        anneal::SampleSet set = sampler->sample(assembled.model);
        const uint64_t sample_elapsed = stats::Trace::nowNs() - t0;

        // Success probability / residual energy / TTS analytics over
        // the sample set (solution-quality instrumentation).
        if (stats::Registry::global().enabled() ||
            telemetry::Collector::global().enabled()) {
            telemetry::AnalyzeOptions aopts;
            aopts.elapsed_ns = sample_elapsed;
            aopts.sweeps_per_read = args.req.sweeps;
            telemetry::Analysis an = telemetry::analyze(set, aopts);
            telemetry::recordAnalysisStats(an);
            if (telemetry::Collector::global().enabled())
                telemetry::Collector::global().addRecord(
                    telemetry::analysisJson(args.req.solver, an));
        }

        // The qmasm-style statistics report.
        if (chatty) {
            std::printf("reads: %llu, distinct solutions: %zu, ground "
                        "fraction: %.3f\n\n",
                        static_cast<unsigned long long>(
                            set.totalReads()),
                        set.size(), set.groundFraction());
            size_t shown = 0;
            for (const auto &s : set.samples()) {
                std::string failed;
                bool ok = assembled.checkAsserts(s.spins, &failed);
                std::printf(
                    "solution %zu: energy %.4f, %u/%llu reads%s\n",
                    shown + 1, s.energy, s.num_occurrences,
                    static_cast<unsigned long long>(set.totalReads()),
                    ok ? "" : "  [assert FAILED]");
                if (!ok)
                    std::printf("    failing assert: %s\n",
                                failed.c_str());
                for (const auto &[sym, value] :
                     assembled.visibleValues(s.spins))
                    std::printf("    %s = %s\n", sym.c_str(),
                                value ? "True" : "False");
                if (++shown >= args.top_solutions)
                    break;
            }
        }
        return 0;
    }
}

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
        args.common.manifest = telemetry::Manifest::make("qma");
        args.common.manifest.input = args.input;
        args.common.manifest.seed = args.req.common.seed;
        args.common.manifest.threads = static_cast<uint32_t>(
            exec::resolveThreads(args.common.threads));
        args.common.manifest.param("solver", args.req.solver);
        args.common.manifest.param(
            "reads", uint64_t{args.req.common.num_reads});
        args.common.manifest.param("sweeps",
                                   uint64_t{args.req.sweeps});
        args.common.manifest.param(
            "physical", uint64_t{args.req.use_physical ? 1u : 0u});
        if (!args.pins.empty())
            args.common.manifest.param(
                "pins", qac::join(args.pins, "; "));
        ret = args.object_mode   ? runObject(args, argv[0])
              : args.client_mode ? runClient(args)
                                 : runQma(args, argv[0]);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "qma: %s\n", e.what());
        ret = 2;
    }
    tools::finishCommonOptions(args.common);
    return ret;
}
