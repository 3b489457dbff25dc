/**
 * @file
 * End-to-end smoke tests for the command-line tools qacc and qma,
 * invoked as real subprocesses (paths injected by CMake).
 */

#include <gtest/gtest.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

namespace {

/** Run a command, capturing stdout; returns (exit code, output). */
std::pair<int, std::string>
run(const std::string &cmd)
{
    std::string output;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return {-1, ""};
    std::array<char, 4096> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        output += buf.data();
    int status = pclose(pipe);
    return {WEXITSTATUS(status), output};
}

std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = std::string(::testing::TempDir()) + name;
    std::ofstream out(path);
    out << text;
    return path;
}

const char *kMult = R"(
module mult (A, B, C);
  input [1:0] A, B;
  output [3:0] C;
  assign C = A * B;
endmodule
)";

TEST(Qacc, CompileAndRunBackward)
{
    std::string v = writeTemp("cli_mult.v", kMult);
    auto [code, out] = run(std::string(QACC_PATH) + " " + v +
                           " --top mult --run --solver exact "
                           "--pin \"C[3:0] := 0110\"");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("logical variables"), std::string::npos) << out;
    EXPECT_NE(out.find("solution"), std::string::npos) << out;
}

TEST(Qacc, EmitsArtifacts)
{
    std::string v = writeTemp("cli_mult2.v", kMult);
    std::string base = std::string(::testing::TempDir()) + "cli_out";
    auto [code, out] = run(std::string(QACC_PATH) + " " + v +
                           " --top mult --emit-edif " + base +
                           ".edif --emit-qmasm " + base +
                           ".qmasm --emit-minizinc " + base +
                           ".mzn --emit-qubo " + base + ".qubo");
    EXPECT_EQ(code, 0) << out;
    for (const char *ext : {".edif", ".qmasm", ".mzn", ".qubo"}) {
        std::ifstream f(base + ext);
        EXPECT_TRUE(f.good()) << ext;
        std::string first;
        std::getline(f, first);
        EXPECT_FALSE(first.empty()) << ext;
    }
}

TEST(Qacc, BadUsageFails)
{
    auto [code1, out1] = run(std::string(QACC_PATH));
    EXPECT_EQ(code1, 2);
    EXPECT_NE(out1.find("usage"), std::string::npos);
    auto [code2, out2] =
        run(std::string(QACC_PATH) + " /nonexistent.v --top x");
    EXPECT_EQ(code2, 2);
    (void)out2;
}

// --chimera-size is capped at C64 (chimera::kMaxChimeraSize): a larger
// size is a usage error, not an allocation of 8 M^2 qubits.
TEST(Qacc, ChimeraSizeAboveTheCapFails)
{
    std::string v = writeTemp("cli_cap.v", kMult);
    for (const char *m : {"65", "4294967295"}) {
        auto [code, out] = run(std::string(QACC_PATH) + " " + v +
                               " --target chimera --chimera-size " + m);
        EXPECT_EQ(code, 2) << out;
        EXPECT_NE(out.find("--chimera-size: value"), std::string::npos)
            << out;
    }
}

TEST(Qacc, StatsReportAndTrace)
{
    std::string v = writeTemp("cli_mult3.v", kMult);
    std::string stats_file =
        std::string(::testing::TempDir()) + "cli_stats.json";
    std::string trace_file =
        std::string(::testing::TempDir()) + "cli_trace.json";
    // --no-cache keeps the run hermetic: a warm embedding cache would
    // legitimately skip minorminer and its stats.
    auto [code, out] = run(std::string(QACC_PATH) + " " + v +
                           " --top mult --target chimera --no-cache "
                           "--chimera-size 8 --stats=" + stats_file +
                           " --trace-json=" + trace_file + " --stats");
    EXPECT_EQ(code, 0) << out;

    // Text report: per-stage wall times, per-pass gate deltas, cell
    // histogram, and embedding chain-length stats.
    EXPECT_NE(out.find("[compile]"), std::string::npos) << out;
    EXPECT_NE(out.find("opt.const_fold.gates_removed"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("cells."), std::string::npos) << out;
    EXPECT_NE(out.find("minorminer.chain_len"), std::string::npos)
        << out;

    // JSON report: nonzero gate count and embedding stats present.
    std::ifstream jf(stats_file);
    ASSERT_TRUE(jf.good());
    std::string json((std::istreambuf_iterator<char>(jf)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"schema\":\"qac-stats-v1\""),
              std::string::npos);
    size_t gates_at =
        json.find("\"path\":\"compile.gates\",\"kind\":\"counter\","
                  "\"value\":");
    ASSERT_NE(gates_at, std::string::npos) << json;
    size_t value_at =
        json.find("\"value\":", gates_at) + strlen("\"value\":");
    EXPECT_GT(std::stoul(json.substr(value_at)), 0u);
    EXPECT_NE(json.find("\"path\":\"compile.physical_qubits\""),
              std::string::npos);

    // Chrome trace: traceEvents array with complete slices.
    std::ifstream tf(trace_file);
    ASSERT_TRUE(tf.good());
    std::string trace((std::istreambuf_iterator<char>(tf)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"compile.total\""),
              std::string::npos);
}

TEST(Qacc, QuietSuppressesOutput)
{
    std::string v = writeTemp("cli_mult4.v", kMult);
    auto [code, out] = run(std::string(QACC_PATH) + " " + v +
                           " --top mult --quiet --run --solver exact "
                           "--pin \"C[3:0] := 0110\"");
    EXPECT_EQ(code, 0) << out;
    EXPECT_TRUE(out.empty()) << out;
}

TEST(Qacc, TopInferredForSingleModule)
{
    std::string v = writeTemp("cli_mult5.v", kMult);
    auto [code, out] = run(std::string(QACC_PATH) + " " + v);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("mult:"), std::string::npos) << out;
}

TEST(Qma, RunsListing4Backward)
{
    // The paper's Listing 4: AND3 from two ANDs; pin Y, solve inputs.
    std::string q = writeTemp("cli_and3.qmasm", R"(
!include "stdcell.qmasm"
!begin_macro AND3
  !use_macro AND a1
  !use_macro AND a2
  A = a2.A
  B = a2.B
  C = a1.B
  Y = a1.Y
  a1.A = a2.Y
!end_macro AND3
!use_macro AND3 my_and
my_and.Y := true
)");
    auto [code, out] = run(std::string(QMA_PATH) + " " + q +
                           " --run --solver exact --top 1");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("my_and.A = True"), std::string::npos) << out;
    EXPECT_NE(out.find("my_and.B = True"), std::string::npos) << out;
    EXPECT_NE(out.find("my_and.C = True"), std::string::npos) << out;
}

TEST(Qma, LocalIncludeResolution)
{
    std::string lib = writeTemp("cli_lib.qmasm",
                                "!begin_macro BIAS\nX -1\n"
                                "!end_macro BIAS\n");
    (void)lib;
    std::string q = writeTemp("cli_main.qmasm",
                              "!include \"cli_lib.qmasm\"\n"
                              "!use_macro BIAS g\n");
    auto [code, out] =
        run(std::string(QMA_PATH) + " " + q + " --run --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("g.X = True"), std::string::npos) << out;
}

TEST(Qma, QuietAndVerboseFlags)
{
    std::string q = writeTemp("cli_quiet.qmasm",
                              "!begin_macro BIAS\nX -1\n"
                              "!end_macro BIAS\n"
                              "!use_macro BIAS g\n");
    auto [qcode, qout] = run(std::string(QMA_PATH) + " " + q +
                             " --quiet --run --solver exact");
    EXPECT_EQ(qcode, 0) << qout;
    EXPECT_TRUE(qout.empty()) << qout;

    auto [vcode, vout] = run(std::string(QMA_PATH) + " " + q +
                             " -v --run --solver exact");
    EXPECT_EQ(vcode, 0) << vout;
    EXPECT_NE(vout.find("g.X = True"), std::string::npos) << vout;
}

TEST(Qma, StatsReport)
{
    std::string q = writeTemp("cli_stats.qmasm",
                              "!begin_macro BIAS\nX -1\n"
                              "!end_macro BIAS\n"
                              "!use_macro BIAS g\n");
    auto [code, out] = run(std::string(QMA_PATH) + " " + q +
                           " --stats --run --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("[qmasm]"), std::string::npos) << out;
    EXPECT_NE(out.find("assemble.vars"), std::string::npos) << out;
    EXPECT_NE(out.find("[anneal]"), std::string::npos) << out;
}

TEST(Qma, FactorySolversAndThreads)
{
    // Every registered sampler is reachable via --solver, including
    // the previously unexposed descent and chainflip; --threads must
    // not change the answer.
    std::string q = writeTemp("cli_solvers.qmasm",
                              "!begin_macro BIAS\nX -1\n"
                              "!end_macro BIAS\n"
                              "!use_macro BIAS g\n");
    for (const char *solver :
         {"sa", "sqa", "descent", "chainflip", "qbsolv"}) {
        auto [code, out] =
            run(std::string(QMA_PATH) + " " + q + " --run --solver " +
                solver + " --reads 50 --threads 4");
        EXPECT_EQ(code, 0) << solver << ": " << out;
        EXPECT_NE(out.find("g.X = True"), std::string::npos)
            << solver << ": " << out;
    }
}

TEST(Qma, UnknownSolverListsChoices)
{
    std::string q = writeTemp("cli_unknown_solver.qmasm", "X -1\n");
    auto [code, out] = run(std::string(QMA_PATH) + " " + q +
                           " --run --solver nope");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("descent"), std::string::npos) << out;
    EXPECT_NE(out.find("chainflip"), std::string::npos) << out;
}

TEST(Qma, BadInputFails)
{
    std::string q = writeTemp("cli_bad.qmasm", "A B C D E\n");
    auto [code, out] = run(std::string(QMA_PATH) + " " + q);
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("qma:"), std::string::npos);
}

// ------------------------------------------------- dimacs frontend

// Unit clauses force the unique model x1=F, x2=T, x3=F.
const char *kCnf = "c crafted: unique model -1 2 -3\n"
                   "p cnf 3 5\n"
                   "1 2 0\n"
                   "-1 0\n"
                   "2 3 0\n"
                   "-3 0\n"
                   "2 0\n";

// Hard exactly-one over (x1,x2); softs pull both ways; optimum
// keeps x1 (w3) and x3 (w4), giving up x2 (w2).
const char *kWcnf = "p wcnf 3 5 10\n"
                    "10 1 2 0\n"
                    "10 -1 -2 0\n"
                    "3 1 0\n"
                    "2 2 0\n"
                    "4 3 0\n";

TEST(Qsat, SolvesCraftedCnf)
{
    std::string f = writeTemp("cli_sat.cnf", kCnf);
    auto [code, out] =
        run(std::string(QSAT_PATH) + " " + f + " --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("s SATISFIABLE\n"), std::string::npos) << out;
    EXPECT_NE(out.find("v -1 2 -3 0\n"), std::string::npos) << out;
    EXPECT_NE(out.find("satisfied 5/5"), std::string::npos) << out;
    EXPECT_EQ(out.find("\no "), std::string::npos) << out; // cnf: no o line
}

TEST(Qsat, WeightedOptimumAndQuiet)
{
    std::string f = writeTemp("cli_sat.wcnf", kWcnf);
    auto [code, out] =
        run(std::string(QSAT_PATH) + " " + f + " --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("o 2\n"), std::string::npos) << out;
    EXPECT_NE(out.find("s SATISFIABLE\n"), std::string::npos) << out;
    EXPECT_NE(out.find("v 1 -2 3 0\n"), std::string::npos) << out;

    // --quiet drops the c comments but keeps the o/s/v verdict.
    auto [qcode, qout] = run(std::string(QSAT_PATH) + " " + f +
                             " --quiet --solver exact");
    EXPECT_EQ(qcode, 0) << qout;
    EXPECT_EQ(qout, "o 2\ns SATISFIABLE\nv 1 -2 3 0\n") << qout;
}

TEST(Qsat, BadUsageAndMissingFileFail)
{
    auto [c1, o1] = run(std::string(QSAT_PATH));
    EXPECT_EQ(c1, 2);
    EXPECT_NE(o1.find("usage"), std::string::npos) << o1;
    auto [c2, o2] = run(std::string(QSAT_PATH) + " /nonexistent.cnf");
    EXPECT_EQ(c2, 2);
    EXPECT_NE(o2.find("qsat:"), std::string::npos) << o2;
}

TEST(Qsat, ChimeraSizeAboveTheCapFails)
{
    std::string f = writeTemp("cli_cap.cnf", kCnf);
    auto [code, out] = run(std::string(QSAT_PATH) + " " + f +
                           " --target chimera --chimera-size 65");
    EXPECT_EQ(code, 2) << out;
    EXPECT_NE(out.find("--chimera-size: value 65 out of range (max 64)"),
              std::string::npos)
        << out;
}

TEST(Qacc, DimacsAutoDetectedFromExtension)
{
    std::string f = writeTemp("cli_auto.cnf", kCnf);
    auto [code, out] = run(std::string(QACC_PATH) + " " + f +
                           " --run --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("logical variables"), std::string::npos) << out;
    EXPECT_NE(out.find("v -1 2 -3 0"), std::string::npos) << out;
    EXPECT_NE(out.find("satisfied 5/5 clauses"), std::string::npos)
        << out;
}

TEST(Qacc, LangFlagOverridesUnknownExtension)
{
    std::string f = writeTemp("cli_lang.txt", kCnf);
    auto [code, out] = run(std::string(QACC_PATH) + " " + f +
                           " --lang dimacs --run --solver exact");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("v -1 2 -3 0"), std::string::npos) << out;
}

TEST(Qacc, UnknownExtensionFailsCleanly)
{
    std::string f = writeTemp("cli_noext.txt", kCnf);
    auto [code, out] = run(std::string(QACC_PATH) + " " + f);
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("cannot infer a source language"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("--lang"), std::string::npos) << out;
}

TEST(Qsat, QoDecodeMatchesEverywhere)
{
    // The acceptance criterion: the same .qo produces the identical
    // decoded model line via qsat, `qma run`, and a qmad daemon.
    std::string f = writeTemp("cli_sat_qo.cnf", kCnf);
    std::string qo = std::string(::testing::TempDir()) + "cli_sat.qo";
    auto [ccode, cout_] = run(std::string(QSAT_PATH) + " " + f +
                              " --solver exact -o " + qo);
    ASSERT_EQ(ccode, 0) << cout_;
    EXPECT_NE(cout_.find("v -1 2 -3 0"), std::string::npos) << cout_;

    const std::string runflags = " --solver exact --reads 32 --seed 7";
    auto [lcode, lout] =
        run(std::string(QMA_PATH) + " run " + qo + runflags);
    EXPECT_EQ(lcode, 0) << lout;
    EXPECT_NE(lout.find("v -1 2 -3 0"), std::string::npos) << lout;
    EXPECT_NE(lout.find("satisfied 5/5 clauses"), std::string::npos)
        << lout;

    std::string sock =
        std::string(::testing::TempDir()) + "cli_sat.sock";
    ::unlink(sock.c_str());
    FILE *daemon = popen(("echo $$; exec " + std::string(QMAD_PATH) +
                          " --socket " + sock + " " + qo + " 2>&1")
                             .c_str(),
                         "r");
    ASSERT_NE(daemon, nullptr);
    std::array<char, 4096> buf;
    ASSERT_NE(fgets(buf.data(), buf.size(), daemon), nullptr);
    pid_t pid = static_cast<pid_t>(std::stol(buf.data()));
    bool up = false;
    for (int i = 0; i < 500 && !up; ++i) {
        up = ::access(sock.c_str(), F_OK) == 0;
        if (!up)
            ::usleep(10000);
    }
    ASSERT_TRUE(up) << "qmad never created " << sock;

    auto [rcode, rout] = run(std::string(QMA_PATH) + " client " +
                             sock + " " + qo + runflags);
    EXPECT_EQ(rcode, 0) << rout;
    EXPECT_EQ(lout, rout); // byte-identical, model lines included

    ::kill(pid, SIGTERM);
    while (fgets(buf.data(), buf.size(), daemon))
        ;
    pclose(daemon);
    ::unlink(sock.c_str());
}

// ------------------------------------------------- artifact subsystem

/** The run report from "reads:" onward (drops tool-specific headers). */
std::string
reportTail(const std::string &out)
{
    size_t at = out.find("reads:");
    return at == std::string::npos ? out : out.substr(at);
}

TEST(Artifact, ObjectFileCompileRunFlow)
{
    // qacc -o emits a .qo object; `qma run` executes it with results
    // identical (from the run report onward) to the in-process path.
    std::string v = writeTemp("cli_mult_qo.v", kMult);
    std::string qo = std::string(::testing::TempDir()) + "cli_mult.qo";
    const std::string runflags =
        " --solver exact --reads 64 --sweeps 64 --seed 7 "
        "--pin \"C[3:0] := 0110\"";

    auto [ccode, cout_] = run(std::string(QACC_PATH) + " " + v +
                              " --top mult --no-cache -o " + qo);
    EXPECT_EQ(ccode, 0) << cout_;
    std::ifstream f(qo, std::ios::binary);
    ASSERT_TRUE(f.good());
    char magic[4] = {};
    f.read(magic, 4);
    EXPECT_EQ(std::string(magic, 4), "QACO");

    auto [dcode, dout] = run(std::string(QACC_PATH) + " " + v +
                             " --top mult --no-cache --run" + runflags);
    EXPECT_EQ(dcode, 0) << dout;
    auto [ocode, oout] =
        run(std::string(QMA_PATH) + " run " + qo + runflags);
    EXPECT_EQ(ocode, 0) << oout;

    EXPECT_NE(dout.find("solution"), std::string::npos) << dout;
    EXPECT_EQ(reportTail(dout), reportTail(oout));
}

TEST(Artifact, QmaRunRejectsCorruptObject)
{
    std::string bad = writeTemp("cli_bad.qo", "QACOnot really");
    auto [code, out] = run(std::string(QMA_PATH) + " run " + bad);
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("qma:"), std::string::npos) << out;
    EXPECT_NE(out.find("truncated"), std::string::npos) << out;
}

TEST(Artifact, CacheCountersInStatsJson)
{
    std::string v = writeTemp("cli_mult_cache.v", kMult);
    std::string cdir = std::string(::testing::TempDir()) +
        "cli_qac_cache." + std::to_string(::getpid());
    std::string s1 =
        std::string(::testing::TempDir()) + "cli_cache_cold.json";
    std::string s2 =
        std::string(::testing::TempDir()) + "cli_cache_warm.json";
    std::string base = std::string(QACC_PATH) + " " + v +
        " --top mult --target chimera --chimera-size 8 --cache-dir " +
        cdir;

    auto slurp = [](const std::string &path) {
        std::ifstream f(path);
        return std::string((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    };

    auto [c1, o1] = run(base + " --stats=" + s1);
    EXPECT_EQ(c1, 0) << o1;
    std::string cold = slurp(s1);
    EXPECT_NE(cold.find("\"path\":\"qac.cache.miss\""),
              std::string::npos)
        << cold;
    EXPECT_EQ(cold.find("\"path\":\"qac.cache.hit\""),
              std::string::npos)
        << cold;

    auto [c2, o2] = run(base + " --stats=" + s2);
    EXPECT_EQ(c2, 0) << o2;
    std::string warm = slurp(s2);
    EXPECT_NE(warm.find("\"path\":\"qac.cache.hit\""),
              std::string::npos)
        << warm;
    // A warm compile never enters the embedder: no compile.embed
    // timer (compile.embed_model, a different metric, still runs).
    EXPECT_EQ(warm.find("\"path\":\"compile.embed\","),
              std::string::npos)
        << warm;
    EXPECT_NE(warm.find("\"path\":\"compile.embed_model\""),
              std::string::npos)
        << warm;
}

TEST(Telemetry, JsonlThreadInvariantWithChainsAndAnalysis)
{
    // The acceptance scenario: compile a multiplier onto Chimera,
    // run it physically with telemetry on, and require the JSONL to
    // be byte-identical between --threads 1 and --threads 8 while
    // carrying every record kind (manifest, read, chains, analysis).
    std::string v = writeTemp("cli_mult_tel.v", kMult);
    std::string qo = std::string(::testing::TempDir()) + "cli_tel.qo";
    auto [ccode, cout_] =
        run(std::string(QACC_PATH) + " " + v +
            " --top mult --target chimera --chimera-size 8 "
            "--no-cache -o " + qo);
    ASSERT_EQ(ccode, 0) << cout_;

    auto slurp = [](const std::string &path) {
        std::ifstream f(path);
        return std::string((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    };
    auto sample = [&](int threads, const std::string &tag) {
        std::string tel = std::string(::testing::TempDir()) +
            "cli_tel_" + tag + ".jsonl";
        std::string st = std::string(::testing::TempDir()) +
            "cli_tel_" + tag + ".json";
        auto [code, out] =
            run(std::string(QMA_PATH) + " run " + qo +
                " --physical --solver chainflip --reads 12 "
                "--sweeps 32 --seed 5 --threads " +
                std::to_string(threads) + " --telemetry=" + tel +
                " --telemetry-stride 4 --stats=" + st);
        EXPECT_EQ(code, 0) << out;
        return std::pair{slurp(tel), slurp(st)};
    };
    auto [jsonl1, stats1] = sample(1, "t1");
    auto [jsonl8, stats8] = sample(8, "t8");

    EXPECT_FALSE(jsonl1.empty());
    EXPECT_EQ(jsonl1, jsonl8);

    // First line is the provenance manifest; the rest cover reads,
    // chain diagnostics, and the TTS analysis.
    EXPECT_EQ(jsonl1.rfind("{\"schema\":\"qac-telemetry-v1\","
                           "\"kind\":\"manifest\"",
                           0),
              0u)
        << jsonl1.substr(0, 200);
    EXPECT_NE(jsonl1.find("\"kind\":\"read\""), std::string::npos);
    EXPECT_NE(jsonl1.find("\"kind\":\"chains\""), std::string::npos);
    EXPECT_NE(jsonl1.find("\"kind\":\"analysis\""),
              std::string::npos);
    EXPECT_NE(jsonl1.find("\"tts99_reads\""), std::string::npos);
    EXPECT_NE(jsonl1.find("\"thread_invariant\":true"),
              std::string::npos);

    // The stats JSON embeds the same provenance manifest (which does
    // include the thread count, hence not byte-compared here).
    EXPECT_NE(stats1.find("\"manifest\":{"), std::string::npos);
    EXPECT_NE(stats1.find("\"qo_digest\""), std::string::npos);
    EXPECT_NE(stats1.find("\"threads\":1"), std::string::npos);
    EXPECT_NE(stats8.find("\"threads\":8"), std::string::npos);
    EXPECT_NE(stats1.find("anneal.chains.break_rate"),
              std::string::npos);
    EXPECT_NE(stats1.find("anneal.analysis.success_probability"),
              std::string::npos);
}

// ------------------------------------------------- service layer

TEST(Qmad, ClientMatchesLocalRunAndDrainsOnSigterm)
{
    // The redesign's acceptance criterion, end to end over real
    // processes: a `qma client` query against a running qmad prints
    // byte-for-byte what `qma run` prints locally, and SIGTERM drains
    // the daemon to a clean exit.
    std::string v = writeTemp("cli_qmad.v", kMult);
    std::string qo = std::string(::testing::TempDir()) + "cli_qmad.qo";
    std::string sock =
        std::string(::testing::TempDir()) + "cli_qmad.sock";
    ::unlink(sock.c_str());

    auto [ccode, cout_] = run(std::string(QACC_PATH) + " " + v +
                              " --top mult --no-cache -o " + qo);
    ASSERT_EQ(ccode, 0) << cout_;

    // `echo $$; exec qmad` keeps the shell's pid for the daemon, so
    // the first output line tells us whom to SIGTERM; pclose() then
    // reports the daemon's own exit status.
    FILE *daemon = popen(("echo $$; exec " + std::string(QMAD_PATH) +
                          " --socket " + sock + " " + qo + " 2>&1")
                             .c_str(),
                         "r");
    ASSERT_NE(daemon, nullptr);
    std::array<char, 4096> buf;
    ASSERT_NE(fgets(buf.data(), buf.size(), daemon), nullptr);
    pid_t pid = static_cast<pid_t>(std::stol(buf.data()));
    ASSERT_GT(pid, 0);

    // Wait for the socket to appear (the daemon prints its banner
    // after listen(), but the filesystem check needs no extra fd).
    bool up = false;
    for (int i = 0; i < 500 && !up; ++i) {
        up = ::access(sock.c_str(), F_OK) == 0;
        if (!up)
            ::usleep(10000);
    }
    ASSERT_TRUE(up) << "qmad never created " << sock;

    const std::string runflags =
        " --solver exact --reads 64 --seed 7 "
        "--pin \"C[3:0] := 0110\"";
    auto [lcode, lout] =
        run(std::string(QMA_PATH) + " run " + qo + runflags);
    EXPECT_EQ(lcode, 0) << lout;
    auto [rcode, rout] = run(std::string(QMA_PATH) + " client " +
                             sock + " " + qo + runflags);
    EXPECT_EQ(rcode, 0) << rout;
    EXPECT_EQ(lout, rout); // byte-identical, headers included
    EXPECT_NE(rout.find("solution"), std::string::npos) << rout;

    // Replaying the same (seed, request id) remotely reproduces too.
    auto [r2code, r2out] = run(std::string(QMA_PATH) + " client " +
                               sock + " " + qo + runflags +
                               " --request-id 3");
    EXPECT_EQ(r2code, 0) << r2out;
    auto [r3code, r3out] = run(std::string(QMA_PATH) + " client " +
                               sock + " " + qo + runflags +
                               " --request-id 3");
    EXPECT_EQ(r3code, 0) << r3out;
    EXPECT_EQ(r2out, r3out);

    // Graceful shutdown: SIGTERM -> drain -> exit 0.
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    std::string tail;
    while (fgets(buf.data(), buf.size(), daemon))
        tail += buf.data();
    int status = pclose(daemon);
    EXPECT_TRUE(WIFEXITED(status)) << tail;
    EXPECT_EQ(WEXITSTATUS(status), 0) << tail;
    EXPECT_NE(tail.find("qmad: draining"), std::string::npos) << tail;
    ::unlink(sock.c_str());
}

TEST(Qmad, ClientReportsServerErrors)
{
    auto [code, out] = run(std::string(QMA_PATH) +
                           " client /nonexistent.sock deadbeef "
                           "--solver exact");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("qma:"), std::string::npos) << out;
}

TEST(Cli, BadNumericFlagsFailCleanly)
{
    std::string v = writeTemp("cli_badnum.v", kMult);
    auto [c1, o1] = run(std::string(QACC_PATH) + " " + v +
                        " --top mult --reads banana");
    EXPECT_EQ(c1, 2);
    EXPECT_NE(o1.find("--reads"), std::string::npos) << o1;
    EXPECT_NE(o1.find("banana"), std::string::npos) << o1;

    auto [c2, o2] = run(std::string(QACC_PATH) + " " + v +
                        " --top mult --threads=many");
    EXPECT_EQ(c2, 2);
    EXPECT_NE(o2.find("--threads"), std::string::npos) << o2;

    std::string q = writeTemp("cli_badnum.qmasm", "X -1\n");
    for (const char *flags : {"--seed -3", "--sweeps 12junk",
                              "--top 99999999999999999999999"}) {
        auto [c3, o3] =
            run(std::string(QMA_PATH) + " " + q + " " + flags);
        EXPECT_EQ(c3, 2) << flags << ": " << o3;
        EXPECT_NE(o3.find("qma:"), std::string::npos)
            << flags << ": " << o3;
    }
}

} // namespace
