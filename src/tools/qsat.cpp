/**
 * @file
 * qsat — the thin DIMACS SAT/MaxSAT convenience driver.
 *
 * Equivalent to `qacc --lang=dimacs <file> --run` but speaks the SAT
 * competition output conventions:
 *
 *   qsat instance.cnf                       # anneal, print s/v lines
 *   qsat instance.wcnf --solver qbsolv      # weighted MaxSAT
 *   qsat instance.cnf -o instance.qo        # also emit the .qo object
 *   qsat instance.cnf --target chimera      # solve the embedded model
 *
 * Output:
 *   c ...                 comments (instance/model header)
 *   o <weight>            best violated soft weight found (wcnf)
 *   s SATISFIABLE         a model satisfying every hard clause
 *   s UNKNOWN             none found (annealing is incomplete: this
 *                         is not an unsatisfiability proof)
 *   v <lit> ... 0         the model, when satisfiable
 *
 * Exit status: 0 when a model satisfying all hard clauses was found,
 * 1 otherwise, 2 on usage/compile errors — matching qacc --run.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qac/anneal/sampler.h"
#include "qac/artifact/qo.h"
#include "qac/chimera/chimera.h"
#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/exec/exec.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "tools/tool_options.h"

namespace {

using namespace qac;

struct Args
{
    std::string input;
    bool chimera = false;
    uint32_t chimera_size = 16;
    bool physical = false;
    std::vector<std::string> pins;
    service::SampleRequest req;
    std::string emit_qo;
    tools::CommonOptions common;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <instance.cnf|instance.wcnf> [options]\n"
        "  --target chimera      minor-embed onto a C16 Chimera graph\n"
        "  --chimera-size <M>    use a C_M graph, M <= 64 (default 16)\n"
        "  --physical            sample the embedded physical model\n"
        "  -o, --emit-qo <file>  write a compiled .qo object "
        "(run with: qma run <file>)\n"
        "  --pin \"xN := 0|1\"     fix a variable (repeatable)\n"
        "  --solver %s\n"
        "%s%s",
        argv0, anneal::samplerNamesJoined().c_str(),
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
        if (a == "--target") {
            std::string t = need(i);
            if (t != "chimera" && t != "logical")
                usage(argv[0]);
            args.chimera = (t == "chimera");
        } else if (a == "--chimera-size")
            args.chimera_size = static_cast<uint32_t>(tools::parseUint(
                "--chimera-size", need(i), chimera::kMaxChimeraSize));
        else if (a == "-o" || a == "--emit-qo")
            args.emit_qo = need(i);
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

int
runQsat(Args &args)
{
    const bool chatty = args.common.verbosity > 0;

    std::ifstream in(args.input);
    if (!in)
        fatal("cannot read '%s'", args.input.c_str());
    std::stringstream ss;
    ss << in.rdbuf();

    core::CompileOptions opts;
    opts.dimacsOpts(); // select the dimacs frontend
    opts.threads = args.common.threads;
    opts.cache.enabled = !args.common.no_cache;
    opts.cache.dir = args.common.cache_dir;
    if (args.chimera) {
        opts.target = core::Target::Chimera;
        opts.chimera_size = args.chimera_size;
    }
    core::CompileResult compiled = core::compile(ss.str(), opts);
    const dimacs::DecodeInfo &dec = *compiled.dimacs_decode;

    if (args.common.stats || !args.common.telemetry_file.empty())
        args.common.manifest.qo_digest =
            artifact::qoDigestHex(artifact::serializeQo(compiled));

    if (chatty)
        std::printf("c %s: %u variables, %zu clauses -> %zu logical "
                    "variables (%u ancillas, %u shared), %zu terms\n",
                    args.input.c_str(), dec.num_vars,
                    dec.clauses.size(), compiled.stats.logical_vars,
                    dec.num_ancillas, dec.shared_ancillas,
                    compiled.stats.logical_terms);

    if (!args.emit_qo.empty()) {
        std::string err;
        if (!artifact::writeQoFile(args.emit_qo, compiled, &err))
            fatal("cannot write '%s': %s", args.emit_qo.c_str(),
                  err.c_str());
        if (chatty)
            std::printf("c wrote %s\n", args.emit_qo.c_str());
    }

    const bool weighted = dec.weighted;
    core::Executable prog(std::move(compiled));
    for (const auto &pin : args.pins)
        prog.pinDirective(pin);

    service::SampleRequest req = args.req;
    req.common.threads = args.common.threads;
    req.use_physical = args.physical;
    if (args.physical)
        req.reduce = false;
    service::SampleResult res = service::runLocal(prog, req);

    // Candidates arrive best-energy first; the first valid one is the
    // best assignment satisfying every hard clause.
    const service::SampleResult::Candidate *best = nullptr;
    for (const auto &c : res.candidates)
        if (c.valid) {
            best = &c;
            break;
        }

    if (!best) {
        std::printf("s UNKNOWN\n");
        return 1;
    }
    if (weighted)
        std::printf("o %g\n", best->weight_violated);
    std::printf("s SATISFIABLE\n");
    std::printf("%s\n", best->model_line.c_str());
    if (chatty)
        std::printf("c satisfied %llu/%llu clauses (%llu reads, "
                    "energy %.4f)\n",
                    static_cast<unsigned long long>(
                        best->clauses_satisfied),
                    static_cast<unsigned long long>(
                        best->clauses_total),
                    static_cast<unsigned long long>(best->occurrences),
                    best->energy);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    int ret;
    try {
        args = parseArgs(argc, argv);
        tools::applyCommonOptions(args.common);
        args.common.manifest = telemetry::Manifest::make("qsat");
        args.common.manifest.input = args.input;
        args.common.manifest.seed = args.req.common.seed;
        args.common.manifest.threads = static_cast<uint32_t>(
            exec::resolveThreads(args.common.threads));
        args.common.manifest.param("lang", "dimacs");
        args.common.manifest.param("solver", args.req.solver);
        args.common.manifest.param("reads",
                                   uint64_t{args.req.common.num_reads});
        args.common.manifest.param("sweeps", uint64_t{args.req.sweeps});
        if (!args.pins.empty())
            args.common.manifest.param(
                "pins", qac::join(args.pins, "; "));
        ret = runQsat(args);
    } catch (const qac::FatalError &e) {
        std::fprintf(stderr, "qsat: %s\n", e.what());
        ret = 2;
    }
    tools::finishCommonOptions(args.common);
    return ret;
}
