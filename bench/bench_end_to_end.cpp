/**
 * @file
 * Reproduces Figures 2 and 3: the end-to-end transformation of the
 * mux add/sub program — source size at every stage, the digital
 * circuit's gate census (Figure 3a), the EDIF artifact (Figure 3b),
 * and an exhaustive check that the final Hamiltonian is minimized
 * exactly on valid relations (Figure 2b).  Includes the Section 4.3.2
 * ablation: complex AOI/OAI cells on vs off ("reduce the required
 * qubit count at the expense of increased compilation time").
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "qac/anneal/sampler.h"
#include "qac/core/compiler.h"
#include "qac/util/strings.h"

#include "bench_stats.h"

namespace {

using namespace qac;

const char *kFig2 = R"(
module mux_add_sub (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
)";

void
printFigure2And3()
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "mux_add_sub";
    auto r = core::compile(kFig2, opts);

    std::printf("--- Figure 2/3: end-to-end transformation ---\n");
    std::printf("stage sizes: %zu lines Verilog -> %zu lines EDIF -> "
                "%zu lines QMASM\n",
                r.stats.source_lines, r.stats.edif_lines,
                r.stats.qmasm_lines);
    std::printf("circuit: %zu gates; gate census:", r.stats.gates);
    for (const char *name : {"NOT", "AND", "OR", "NAND", "NOR", "XOR",
                             "XNOR", "MUX", "AOI3", "OAI3", "AOI4",
                             "OAI4"}) {
        size_t n =
            r.netlist.countGates(cells::gateTypeByName(name));
        if (n)
            std::printf(" %s=%zu", name, n);
    }
    std::printf("\nlogical H: %zu variables, %zu terms\n",
                r.stats.logical_vars, r.stats.logical_terms);

    std::printf("\nEDIF excerpt (first 12 lines of %zu):\n",
                r.stats.edif_lines);
    auto lines = split(r.edif_text, '\n');
    for (size_t i = 0; i < 12 && i < lines.size(); ++i)
        std::printf("  %s\n", lines[i].c_str());

    // Figure 2(b)'s property: exhaustive minimizer check.  The exact
    // sampler reports every ground state once.
    auto set =
        anneal::makeSampler("exact", {})->sample(r.assembled.model);
    size_t valid = 0;
    for (const auto &s : set.samples())
        if (r.assembled.checkAsserts(s.spins))
            ++valid;
    std::printf("\nground states: %zu, all valid relations: %s "
                "(expect 8 distinct (s,a,b,c) tuples)\n",
                set.size(), valid == set.size() ? "yes" : "NO");

    // Example spot checks from the caption.
    std::printf("paper spot checks: {s=0,a=1,b=0,c=01} minimizes, "
                "{s=1,a=1,b=1,c=10} minimizes, {s=1,a=0,b=0,c=11} does "
                "not.\n\n");
}

void
printTechmapAblation()
{
    std::printf("--- ablation: complex cells (Section 4.3.2) ---\n");
    std::printf("%-22s %8s %8s %8s\n", "configuration", "gates",
                "vars", "terms");
    struct Config
    {
        const char *name;
        bool fuse;
        bool complex_cells;
    };
    for (const Config &cfg :
         {Config{"simple gates only", false, false},
          Config{"+ NAND/NOR/XNOR", true, false},
          Config{"+ AOI/OAI cells", true, true}}) {
        core::CompileOptions opts;
        opts.verilogOpts().top = "mux_add_sub";
        opts.verilogOpts().techmap.fuse_inverters = cfg.fuse;
        opts.verilogOpts().techmap.use_complex_cells = cfg.complex_cells;
        auto r = core::compile(kFig2, opts);
        std::printf("%-22s %8zu %8zu %8zu\n", cfg.name, r.stats.gates,
                    r.stats.logical_vars, r.stats.logical_terms);
    }
    std::printf("\n");
}

void
BM_CompileFig2(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "mux_add_sub";
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(kFig2, opts));
}
BENCHMARK(BM_CompileFig2)->Unit(benchmark::kMillisecond);

void
BM_CompileFig2ToChimera(benchmark::State &state)
{
    core::CompileOptions opts;
    opts.verilogOpts().top = "mux_add_sub";
    opts.target = core::Target::Chimera;
    opts.chimera_size = 4;
    opts.cache.enabled = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(kFig2, opts));
}
BENCHMARK(BM_CompileFig2ToChimera)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    qac::benchstats::Scope bench_scope("end_to_end");
    printFigure2And3();
    printTechmapAblation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
