/**
 * @file
 * qmad — the long-lived annealing service.
 *
 *   qmad --socket /run/qac.sock --serve-dir objs/ --preload
 *   qmad --socket /tmp/q.sock design.qo other.qo --queue-depth 64
 *
 * Serves compiled .qo objects over a unix socket: clients (`qma
 * client`, perfbench, anything speaking service/wire.h) address
 * an object by digest, attach pins and solver parameters, and get
 * back the same bytes `qma run` would print locally.  This is the
 * compile-once/pin-many economics of Section 5.2 as a resident
 * process: objects load once, stay LRU-cached, and concurrent
 * requests against the same object batch onto the shared thread
 * pool.
 *
 * SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish
 * every admitted request, flush replies, exit 0.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "qac/anneal/sampler.h"
#include "qac/exec/exec.h"
#include "qac/service/server.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "tools/tool_options.h"

namespace {

using namespace qac;

struct Args
{
    std::string socket;
    std::string serve_dir;
    std::vector<std::string> objects;
    bool preload = false; ///< load every object before listening
    service::StoreOptions store;
    service::CoreOptions core;
    tools::CommonOptions common;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket <path> [<design.qo>...] [options]\n"
        "  --socket <path>       unix socket to listen on (required)\n"
        "  --serve-dir <dir>     register every *.qo in <dir>\n"
        "  --preload             load all objects before listening\n"
        "  --max-objects <N>     resident executables (LRU beyond; "
        "default 8)\n"
        "  --queue-depth <N>     admission queue bound (default 256)\n"
        "  --max-batch <N>       same-object requests coalesced per "
        "dispatch (default 16)\n"
        "  --max-threads <N>     cap per-request threads (0 = honor "
        "request)\n"
        "%s",
        argv0, tools::commonUsage());
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
        if (a == "--socket")
            args.socket = need(i);
        else if (a == "--serve-dir")
            args.serve_dir = need(i);
        else if (a == "--preload")
            args.preload = true;
        else if (a == "--max-objects")
            args.store.max_loaded = static_cast<size_t>(
                tools::parseUint("--max-objects", need(i)));
        else if (a == "--queue-depth")
            args.core.queue_depth = static_cast<size_t>(
                tools::parseUint("--queue-depth", need(i)));
        else if (a == "--max-batch")
            args.core.max_batch = static_cast<size_t>(
                tools::parseUint("--max-batch", need(i)));
        else if (a == "--max-threads")
            args.core.threads = static_cast<uint32_t>(tools::parseUint(
                "--max-threads", need(i), UINT32_MAX));
        else if (a == "--help" || a == "-h")
            usage(argv[0]);
        else if (!a.empty() && a[0] == '-')
            usage(argv[0]);
        else
            args.objects.push_back(a);
    }
    if (args.socket.empty())
        usage(argv[0]);
    if (args.objects.empty() && args.serve_dir.empty())
        fatal("nothing to serve: pass .qo files or --serve-dir");
    return args;
}

// Self-pipe: the handler only writes one byte; the main thread owns
// the actual drain so no daemon state is touched in signal context.
int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    ssize_t ignored = ::write(g_signal_pipe[1], "x", 1);
    (void)ignored;
}

int
runQmad(Args &args)
{
    const bool chatty = args.common.verbosity > 0;

    service::ServerOptions opts;
    opts.socket_path = args.socket;
    opts.store = args.store;
    opts.core = args.core;
    service::Server server(std::move(opts));

    if (!args.serve_dir.empty())
        server.store().registerDir(args.serve_dir);
    for (const auto &path : args.objects) {
        std::string error;
        if (!server.store().registerFile(path, &error))
            fatal("%s", error.c_str());
    }
    if (server.store().registered() == 0)
        fatal("no servable objects found");

    if (args.preload)
        for (const auto &info : server.store().list())
            server.store().acquire(info.digest);

    if (::pipe(g_signal_pipe) < 0)
        fatal("cannot create signal pipe");
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    std::string error;
    if (!server.listen(&error))
        fatal("%s", error.c_str());
    if (chatty) {
        for (const auto &info : server.store().list())
            service::printObjectLine(stdout, info.name,
                                     info.logical_vars,
                                     info.logical_terms,
                                     info.embedded);
        std::printf("qmad: serving %zu object(s) on %s\n",
                    server.store().registered(),
                    server.socketPath().c_str());
        std::fflush(stdout);
    }

    // Block until a signal lands; EINTR just retries.
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }

    if (chatty)
        std::printf("qmad: draining (%zu queued)\n",
                    server.core().queued());
    server.drain();
    if (chatty)
        std::printf("qmad: served %llu request(s) over %llu "
                    "connection(s), %llu batched\n",
                    static_cast<unsigned long long>(
                        server.core().completed()),
                    static_cast<unsigned long long>(
                        server.connectionsAccepted()),
                    static_cast<unsigned long long>(
                        server.core().batchedRequests()));
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
        args.common.manifest = telemetry::Manifest::make("qmad");
        args.common.manifest.input =
            !args.serve_dir.empty() ? args.serve_dir
            : !args.objects.empty() ? args.objects.front()
                                    : "";
        args.common.manifest.threads = static_cast<uint32_t>(
            exec::resolveThreads(args.common.threads));
        args.common.manifest.param(
            "queue_depth", uint64_t{args.core.queue_depth});
        args.common.manifest.param("max_batch",
                                   uint64_t{args.core.max_batch});
        args.common.manifest.param("max_objects",
                                   uint64_t{args.store.max_loaded});
        ret = runQmad(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "qmad: %s\n", e.what());
        ret = 2;
    }
    tools::finishCommonOptions(args.common);
    return ret;
}
