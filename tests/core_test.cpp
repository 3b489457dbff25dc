/**
 * @file
 * Tests for the compiler driver and the Executable run API: pins,
 * forward runs cross-checked against simulation, backward runs, and
 * the compile statistics the Section 6.1 experiment reads.
 */

#include <gtest/gtest.h>

#include "qac/core/compiler.h"
#include "qac/core/program.h"
#include "qac/service/request.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::core {
namespace {

const char *kMux = R"(
module mux_add_sub (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
)";

const char *kMult2 = R"(
module mult2 (A, B, C);
  input [1:0] A, B;
  output [3:0] C;
  assign C = A * B;
endmodule
)";

const char *kCircsat = R"(
module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule
)";

const char *kCount = R"(
module count (clk, inc, reset, out);
  input clk, inc, reset;
  output [2:0] out;
  reg [2:0] var;
  always @(posedge clk)
    if (reset) var <= 0;
    else if (inc) var <= var + 1;
  assign out = var;
endmodule
)";

CompileResult
compileMux()
{
    CompileOptions co;
    co.verilogOpts().top = "mux_add_sub";
    return compile(kMux, co);
}

TEST(Compile, StatsArePopulated)
{
    auto r = compileMux();
    EXPECT_GT(r.stats.source_lines, 0u);
    EXPECT_GT(r.stats.edif_lines, r.stats.source_lines);
    EXPECT_GT(r.stats.qmasm_lines, 0u);
    EXPECT_GT(r.stats.stdcell_lines, 0u);
    EXPECT_GT(r.stats.gates, 0u);
    EXPECT_GE(r.stats.logical_vars, 4u); // s, a, b, c[1:0] at least
    EXPECT_GT(r.stats.logical_terms, 0u);
    EXPECT_EQ(r.stats.physical_qubits, 0u); // logical target
}

TEST(Compile, SequentialNeedsUnrollSteps)
{
    CompileOptions co;
    co.verilogOpts().top = "count";
    EXPECT_THROW(compile(kCount, co), FatalError);
    co.verilogOpts().unroll_steps = 2;
    auto r = compile(kCount, co);
    EXPECT_FALSE(r.netlist.isSequential());
    EXPECT_NE(r.netlist.findPort("out@0"), nullptr);
    EXPECT_NE(r.netlist.findPort("var@2"), nullptr);
}

TEST(Compile, ChimeraTargetEmbeds)
{
    CompileOptions co;
    co.verilogOpts().top = "mux_add_sub";
    co.target = Target::Chimera;
    co.chimera_size = 4;
    auto r = compile(kMux, co);
    ASSERT_TRUE(r.embedded.has_value());
    EXPECT_GE(r.stats.physical_qubits, r.stats.logical_vars);
    EXPECT_GT(r.stats.physical_terms, 0u);
    EXPECT_TRUE(
        r.embedded->physical.withinRange(ising::CoefficientRange{}));
}

// A Chimera size past chimera::kMaxChimeraSize is a compile error, not
// an allocation of 8 m^2 adjacency lists.
TEST(Compile, ChimeraSizeAboveTheCapThrows)
{
    CompileOptions co;
    co.verilogOpts().top = "mux_add_sub";
    co.target = Target::Chimera;
    co.chimera_size = chimera::kMaxChimeraSize + 1;
    EXPECT_THROW(compile(kMux, co), FatalError);
    co.chimera_size = UINT32_MAX;
    EXPECT_THROW(compile(kMux, co), FatalError);
}

TEST(Pins, DirectiveParsing)
{
    auto r = compileMux();
    auto pins = parsePinDirective("c[1:0] := 10", r.netlist);
    ASSERT_EQ(pins.size(), 2u);
    EXPECT_EQ(pins[0].symbol, "c[0]");
    EXPECT_FALSE(pins[0].value);
    EXPECT_EQ(pins[1].symbol, "c[1]");
    EXPECT_TRUE(pins[1].value);

    pins = parsePinDirective("s := true", r.netlist);
    ASSERT_EQ(pins.size(), 1u);
    EXPECT_EQ(pins[0].symbol, "s");
    EXPECT_TRUE(pins[0].value);

    pins = parsePinDirective("c := 3", r.netlist); // decimal
    ASSERT_EQ(pins.size(), 2u);
    EXPECT_TRUE(pins[0].value);
    EXPECT_TRUE(pins[1].value);

    pins = parsePinDirective("c[1] := 1", r.netlist); // single bit
    ASSERT_EQ(pins.size(), 1u);
    EXPECT_EQ(pins[0].symbol, "c[1]");

    EXPECT_THROW(parsePinDirective("nope := 1", r.netlist), FatalError);
    EXPECT_THROW(parsePinDirective("c = 1", r.netlist), FatalError);
    EXPECT_THROW(parsePinDirective("c[5:0] := 000000", r.netlist),
                 FatalError);
}

TEST(Executable, ForwardRunMatchesSimulation)
{
    // Figure 2 forward: pin all inputs, anneal, read c; compare with
    // the classical evaluation for every input combination.
    Executable ex(compileMux());
    for (uint64_t v = 0; v < 8; ++v) {
        ex.clearPins();
        ex.pinPort("s", v & 1);
        ex.pinPort("a", (v >> 1) & 1);
        ex.pinPort("b", (v >> 2) & 1);
        Executable::RunOptions ro;
        ro.solver = "exact";
        auto rr = ex.run(ro);
        ASSERT_TRUE(rr.hasValid()) << "v=" << v;
        auto want = ex.evaluate({{"s", v & 1},
                                 {"a", (v >> 1) & 1},
                                 {"b", (v >> 2) & 1}});
        EXPECT_EQ(ex.portValue(rr.bestValid(), "c"), want.at("c"));
    }
}

TEST(Executable, BackwardRunFactorsTinyProduct)
{
    CompileOptions co;
    co.verilogOpts().top = "mult2";
    Executable ex(compile(kMult2, co));
    ex.pinPort("C", 6); // 2*3 or 3*2
    Executable::RunOptions ro;
    ro.solver = "exact";
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    std::set<std::pair<uint64_t, uint64_t>> factors;
    for (auto *c : rr.validCandidates())
        factors.insert({ex.portValue(*c, "A"), ex.portValue(*c, "B")});
    EXPECT_TRUE(factors.count({2, 3}));
    EXPECT_TRUE(factors.count({3, 2}));
    for (const auto &[a, b] : factors)
        EXPECT_EQ(a * b, 6u);
}

TEST(Executable, DivisionByPinning)
{
    // Section 5.3: "or even divide" — pin C and A, solve for B.
    CompileOptions co;
    co.verilogOpts().top = "mult2";
    Executable ex(compile(kMult2, co));
    ex.pinPort("C", 6);
    ex.pinPort("A", 3);
    Executable::RunOptions ro;
    ro.solver = "exact";
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    for (auto *c : rr.validCandidates())
        EXPECT_EQ(ex.portValue(*c, "B"), 2u);
}

TEST(Executable, UnsatisfiablePinsYieldNoValidCandidate)
{
    // 5 is prime and not representable as a 2-bit x 2-bit product
    // other than 1*5/5*1, which needs 3 bits -> no witness.
    CompileOptions co;
    co.verilogOpts().top = "mult2";
    Executable ex(compile(kMult2, co));
    ex.pinPort("C", 5);
    ex.pinPort("A", 2); // 2*B == 5 impossible
    Executable::RunOptions ro;
    ro.solver = "exact";
    auto rr = ex.run(ro);
    // The paper: "the quantum annealer would return an invalid
    // solution, as Equation (1) has no ability to represent 'no
    // solution'" — candidates exist but none validates.
    EXPECT_FALSE(rr.hasValid());
    EXPECT_FALSE(rr.candidates.empty());
}

TEST(Executable, ReduceEquivalentToFull)
{
    // Roof-duality elision must not change the answer.
    Executable ex(compileMux());
    ex.pinPort("s", 1);
    ex.pinPort("a", 1);
    ex.pinPort("b", 1);
    Executable::RunOptions with;
    with.solver = "exact";
    with.reduce = true;
    Executable::RunOptions without = with;
    without.reduce = false;
    auto r1 = ex.run(with);
    auto r2 = ex.run(without);
    ASSERT_TRUE(r1.hasValid());
    ASSERT_TRUE(r2.hasValid());
    EXPECT_EQ(ex.portValue(r1.bestValid(), "c"),
              ex.portValue(r2.bestValid(), "c"));
    EXPECT_GT(r1.vars_fixed, 0u);
    EXPECT_LT(r1.vars_sampled, r2.vars_sampled);
}

TEST(Executable, SimulatedAnnealingPath)
{
    Executable ex(compileMux());
    ex.pinDirective("c[1:0] := 10");
    ex.pinDirective("s := true");
    Executable::RunOptions ro;
    ro.common.num_reads = 100;
    ro.sweeps = 128;
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    // s=1, c=2 -> a+b == 2 -> a=b=1.
    const auto &c = rr.bestValid();
    EXPECT_EQ(c.values.at("a"), true);
    EXPECT_EQ(c.values.at("b"), true);
}

TEST(Executable, PhysicalRunOnChimera)
{
    CompileOptions co;
    co.verilogOpts().top = "mux_add_sub";
    co.target = Target::Chimera;
    co.chimera_size = 4;
    Executable ex(compile(kMux, co));
    ex.pinPort("s", 0);
    ex.pinPort("a", 1);
    ex.pinPort("b", 1);
    Executable::RunOptions ro;
    ro.common.num_reads = 60;
    ro.sweeps = 256;
    ro.use_physical = true;
    ro.reduce = false;
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    EXPECT_EQ(ex.portValue(rr.bestValid(), "c"), 0u); // 1-1
}

uint64_t
counterValue(const std::string &path)
{
    for (const auto &m : stats::Registry::global().snapshot())
        if (m.path == path && m.kind == stats::MetricKind::Counter)
            return m.count;
    return 0;
}

TEST(Executable, ReducedPhysicalRunReembeds)
{
    // Physical run with reduction on: roof duality fixes variables,
    // so run() embeds the reduced model afresh before sampling.
    CompileOptions co;
    co.verilogOpts().top = "circsat";
    co.target = Target::Chimera;
    co.chimera_size = 4;
    co.cache.enabled = false;
    Executable ex(compile(kCircsat, co));
    ex.pinDirective("y := true");
    service::SampleRequest req;
    req.common.num_reads = 60;
    req.sweeps = 256;
    req.use_physical = true;
    req.reduce = true;

    auto &reg = stats::Registry::global();
    bool prev = reg.setEnabled(true);
    reg.reset();
    req.common.threads = 1;
    auto rr = ex.run(req);
    EXPECT_GT(counterValue("embed.minorminer.tries"), 0u);
    reg.setEnabled(prev);

    EXPECT_GT(rr.vars_fixed, 0u);
    ASSERT_TRUE(rr.hasValid());
    const auto &c = rr.bestValid();
    EXPECT_EQ(c.values.at("a"), true);
    EXPECT_EQ(c.values.at("b"), true);
    EXPECT_EQ(c.values.at("c"), false);

    const std::string one =
        service::serializeResult(service::runLocal(ex, req));
    req.common.threads = 4;
    EXPECT_EQ(service::serializeResult(service::runLocal(ex, req)), one);
}

TEST(Executable, SequentialBackwardRun)
{
    // Compile the counter for 2 steps and ask: starting from state 0,
    // which inputs leave the counter at 2?  Answer: inc on both steps.
    CompileOptions co;
    co.verilogOpts().top = "count";
    co.verilogOpts().unroll_steps = 2;
    Executable ex(compile(kCount, co));
    ex.pinPort("var@0", 0);
    ex.pinPort("var@2", 2);
    ex.pinPort("reset@0", 0);
    ex.pinPort("reset@1", 0);
    Executable::RunOptions ro;
    ro.solver = "exact";
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    const auto &c = rr.bestValid();
    EXPECT_EQ(ex.portValue(c, "inc@0"), 1u);
    EXPECT_EQ(ex.portValue(c, "inc@1"), 1u);
}

TEST(Executable, EvaluateRunsClassically)
{
    Executable ex(compileMux());
    auto out = ex.evaluate({{"s", 1}, {"a", 1}, {"b", 1}});
    EXPECT_EQ(out.at("c"), 2u);
}

TEST(Executable, PinErrorsAreFriendly)
{
    Executable ex(compileMux());
    EXPECT_THROW(ex.pinPort("nothere", 0), FatalError);
    EXPECT_THROW(ex.pinBit("nothere", true), FatalError);
    EXPECT_NO_THROW(ex.pinBit("s", true));
}


TEST(Executable, QbsolvSolverPath)
{
    // The qbsolv decomposition path must land on valid relations too.
    Executable ex(compileMux());
    ex.pinPort("s", 0);
    ex.pinPort("a", 0);
    ex.pinPort("b", 1);
    Executable::RunOptions ro;
    ro.solver = "qbsolv";
    ro.common.num_reads = 100;
    auto rr = ex.run(ro);
    ASSERT_TRUE(rr.hasValid());
    EXPECT_EQ(ex.portValue(rr.bestValid(), "c"), 3u); // 0-1 = 11b
}

} // namespace
} // namespace qac::core
