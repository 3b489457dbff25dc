/**
 * @file
 * The event-driven 4-state simulation subsystem (DESIGN.md §15):
 * logic tables against the 2-state reference, event-queue
 * determinism, X propagation, VCD golden dumps, assert-on-trace
 * checking, the X lint, and the differential oracle — including the
 * negative test where an injected techmap bug must be caught.
 */

#include <gtest/gtest.h>

#include "qac/cells/gate.h"
#include "qac/core/compiler.h"
#include "qac/netlist/simulate.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/sim/assert_check.h"
#include "qac/sim/diff_check.h"
#include "qac/sim/event_sim.h"
#include "qac/sim/logic.h"
#include "qac/sim/vcd.h"
#include "qac/sim/xlint.h"
#include "qac/util/logging.h"
#include "qac/verilog/synth.h"

namespace qac::sim {
namespace {

using cells::GateType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PortDir;

/** Every combinational gate type with its arity. */
std::vector<std::pair<GateType, size_t>>
combinationalGates()
{
    std::vector<std::pair<GateType, size_t>> out;
    for (size_t t = 0; t < cells::kNumGateTypes; ++t) {
        GateType gt = static_cast<GateType>(t);
        const auto &info = cells::gateInfo(gt);
        if (!info.sequential)
            out.emplace_back(gt, info.inputs.size());
    }
    return out;
}

// ------------------------------------------------------ 4-state tables

TEST(Logic4, KnownInputsMatchTwoStateTables)
{
    // On fully known inputs the 4-state tables must agree with the
    // 2-state evalGate for every cell and every input combination.
    for (const auto &[gt, arity] : combinationalGates()) {
        for (uint32_t bits = 0; bits < (1u << arity); ++bits) {
            Logic in[4];
            for (size_t k = 0; k < arity; ++k)
                in[k] = fromBool((bits >> k) & 1);
            Logic got = evalGate4(gt, in);
            ASSERT_TRUE(isKnown(got));
            EXPECT_EQ(toBool(got), cells::evalGate(gt, bits))
                << cells::gateInfo(gt).name << " bits=" << bits;
        }
    }
}

TEST(Logic4, UnknownsArePessimisticallySound)
{
    // For every input pattern over {0,1,X,Z}: if the 4-state result is
    // known, then EVERY known resolution of the X/Z inputs must give
    // that same value (soundness — a "known" output really is
    // independent of every unknown).
    for (const auto &[gt, arity] : combinationalGates()) {
        const uint32_t patterns = 1;
        uint32_t total = patterns;
        for (size_t k = 0; k < arity; ++k)
            total *= 4;
        for (uint32_t p = 0; p < total; ++p) {
            Logic in[4];
            uint32_t unknown_mask = 0;
            uint32_t base = 0;
            uint32_t q = p;
            for (size_t k = 0; k < arity; ++k, q /= 4) {
                in[k] = static_cast<Logic>(q % 4);
                if (!isKnown(in[k]))
                    unknown_mask |= 1u << k;
                else if (toBool(in[k]))
                    base |= 1u << k;
            }
            Logic got = evalGate4(gt, in);
            if (!isKnown(got))
                continue;
            // Enumerate all resolutions of the unknown bits.
            uint32_t m = unknown_mask;
            for (uint32_t sub = 0;; sub = (sub - m) & m) {
                EXPECT_EQ(cells::evalGate(gt, base | sub), toBool(got))
                    << cells::gateInfo(gt).name << " pattern=" << p;
                if (sub == m)
                    break;
            }
        }
    }
}

TEST(Logic4, ControllingValuesAndPessimism)
{
    EXPECT_EQ(and4(Logic::L0, Logic::X), Logic::L0);
    EXPECT_EQ(and4(Logic::X, Logic::L1), Logic::X);
    EXPECT_EQ(or4(Logic::L1, Logic::Z), Logic::L1);
    EXPECT_EQ(or4(Logic::X, Logic::L0), Logic::X);
    EXPECT_EQ(xor4(Logic::X, Logic::L1), Logic::X);
    EXPECT_EQ(not4(Logic::Z), Logic::X);
    // MUX with an unknown select is X even when both data agree.
    EXPECT_EQ(mux4(Logic::L1, Logic::L1, Logic::X), Logic::X);
    EXPECT_EQ(mux4(Logic::L0, Logic::L1, Logic::L1), Logic::L1);
    // Z is consumed as X at any gate input.
    EXPECT_EQ(drive(Logic::Z), Logic::X);
    EXPECT_EQ(and4(Logic::Z, Logic::L1), Logic::X);
}

// --------------------------------------------------- event simulation

/** y = (a & b) ^ c plus an independent z = !d cone. */
Netlist
twoConeNetlist()
{
    Netlist nl;
    NetId a = nl.newNet("a"), b = nl.newNet("b"), c = nl.newNet("c");
    NetId d = nl.newNet("d");
    NetId ab = nl.newNet("ab");
    NetId y = nl.newNet("y"), z = nl.newNet("z");
    nl.addGate(GateType::AND, {a, b}, ab);
    nl.addGate(GateType::XOR, {ab, c}, y);
    nl.addGate(GateType::NOT, {d}, z);
    nl.addPortOver("a", PortDir::Input, {a});
    nl.addPortOver("b", PortDir::Input, {b});
    nl.addPortOver("c", PortDir::Input, {c});
    nl.addPortOver("d", PortDir::Input, {d});
    nl.addPortOver("y", PortDir::Output, {y});
    nl.addPortOver("z", PortDir::Output, {z});
    return nl;
}

TEST(EventSim, MatchesLevelizedSimulatorExhaustively)
{
    const char *src = R"(
        module ref (a, b, s, y, z);
          input [2:0] a, b; input s; output [3:0] y; output z;
          assign y = s ? (a + b) : (a - b);
          assign z = (a == b);
        endmodule
    )";
    auto nl = verilog::synthesizeSource(src, "ref");
    EventSimulator ev(nl);
    netlist::Simulator lev(nl);
    for (uint64_t v = 0; v < 128; ++v) {
        uint64_t a = v & 7, b = (v >> 3) & 7, s = (v >> 6) & 1;
        ev.setInput("a", a);
        ev.setInput("b", b);
        ev.setInput("s", s);
        ev.eval();
        lev.setInput("a", a);
        lev.setInput("b", b);
        lev.setInput("s", s);
        lev.eval();
        EXPECT_EQ(ev.output("y"), lev.output("y")) << "v=" << v;
        EXPECT_EQ(ev.output("z"), lev.output("z")) << "v=" << v;
    }
}

TEST(EventSim, DeterministicTraceAndEventCounts)
{
    // Identical stimulus => identical trace (times, nets, values) and
    // identical event/change counters, run after run.
    auto drive = [](EventSimulator &s) {
        s.enableTrace();
        s.setInput("a", 1);
        s.setInput("b", 1);
        s.setInput("c", 0);
        s.setInput("d", 1);
        s.eval();
        s.setInput("b", 0);
        s.eval();
        s.setInput("c", 1);
        s.setInput("d", 0);
        s.eval();
    };
    Netlist nl = twoConeNetlist();
    EventSimulator s1(nl), s2(nl);
    drive(s1);
    drive(s2);
    EXPECT_EQ(s1.eventsProcessed(), s2.eventsProcessed());
    EXPECT_EQ(s1.changesApplied(), s2.changesApplied());
    ASSERT_EQ(s1.trace().size(), s2.trace().size());
    for (size_t i = 0; i < s1.trace().size(); ++i) {
        EXPECT_EQ(s1.trace()[i].time, s2.trace()[i].time);
        EXPECT_EQ(s1.trace()[i].net, s2.trace()[i].net);
        EXPECT_EQ(s1.trace()[i].value, s2.trace()[i].value);
    }
    EXPECT_EQ(toVcd(s1), toVcd(s2));
}

TEST(EventSim, OnlyTheChangedConeReevaluates)
{
    Netlist nl = twoConeNetlist();
    EventSimulator sim(nl);
    sim.setInput("a", 1);
    sim.setInput("b", 1);
    sim.setInput("c", 0);
    sim.setInput("d", 0);
    sim.eval();
    uint64_t before = sim.eventsProcessed();
    // d only feeds the NOT gate: exactly one gate evaluation.
    sim.setInput("d", 1);
    sim.eval();
    EXPECT_EQ(sim.eventsProcessed(), before + 1);
    // An input change that produces no net change schedules nothing.
    before = sim.eventsProcessed();
    sim.setInput("d", 1);
    sim.eval();
    EXPECT_EQ(sim.eventsProcessed(), before);
}

TEST(EventSim, XPropagatesUntilInputsAreSet)
{
    Netlist nl = twoConeNetlist();
    EventSimulator sim(nl);
    // b unset: y = (a&b)^c is unknown for a=1, but known for a=0,c=0
    // only via the AND controlling value... here a=1 keeps it X.
    sim.setInput("a", 1);
    sim.setInput("c", 0);
    sim.eval();
    EXPECT_FALSE(sim.portKnown("y"));
    EXPECT_THROW(sim.output("y"), FatalError);
    // AND's controlling value: a=0 resolves y despite b being X.
    sim.setInput("a", 0);
    sim.eval();
    EXPECT_TRUE(sim.portKnown("y"));
    EXPECT_EQ(sim.output("y"), 0u);
}

TEST(EventSim, FlopsPowerUpXAndResetResolves)
{
    // Toggle flop q <= ~q.
    Netlist nl;
    NetId q = nl.newNet("q"), d = nl.newNet("d");
    nl.addGate(GateType::NOT, {q}, d);
    nl.addGate(GateType::DFF_P, {d}, q);
    nl.addPortOver("q", PortDir::Output, {q});
    EventSimulator sim(nl);
    EXPECT_FALSE(sim.portKnown("q"));
    EXPECT_THROW(sim.output("q"), FatalError);
    sim.step(); // ~X is still X
    EXPECT_FALSE(sim.portKnown("q"));
    sim.reset();
    EXPECT_EQ(sim.output("q"), 0u);
    sim.step();
    EXPECT_EQ(sim.output("q"), 1u);
    sim.step();
    EXPECT_EQ(sim.output("q"), 0u);
}

TEST(EventSim, CombinationalCycleOscillationIsFatal)
{
    // A gated ring oscillator: y = NAND(en, y).  From the all-X power
    // up state the loop is a stable fixpoint (X in, X out), and with
    // en=0 the controlling value pins y=1 — but en=1 makes known
    // values chase each other around the loop forever, which settle()
    // must report instead of spinning.
    Netlist nl;
    NetId en = nl.newNet("en"), y = nl.newNet("y");
    nl.addGate(GateType::NAND, {en, y}, y);
    nl.addPortOver("en", PortDir::Input, {en});
    nl.addPortOver("y", PortDir::Output, {y});
    EventSimulator sim(nl);
    sim.setInput("en", 0);
    sim.eval();
    EXPECT_EQ(sim.output("y"), 1u);
    sim.setInput("en", 1);
    EXPECT_THROW(sim.eval(), FatalError);
}

// ------------------------------------- 2-state Simulator regression

TEST(SimulatorRegression, UnsetInputReadIsFatalNotZero)
{
    // The levelized Simulator used to read unset inputs as 0; it must
    // now refuse (4-state rebase, DESIGN.md §15).
    Netlist nl;
    NetId a = nl.newNet("a"), b = nl.newNet("b"), y = nl.newNet("y");
    nl.addGate(GateType::OR, {a, b}, y);
    nl.addPortOver("a", PortDir::Input, {a});
    nl.addPortOver("b", PortDir::Input, {b});
    nl.addPortOver("y", PortDir::Output, {y});
    netlist::Simulator sim(nl);
    EXPECT_THROW(sim.output("y"), FatalError);
    EXPECT_THROW(sim.netValue(y), FatalError);
    sim.setInput("a", 1); // OR's controlling value resolves y
    sim.eval();
    EXPECT_EQ(sim.output("y"), 1u);
    sim.setInput("b", 0);
    sim.eval();
    EXPECT_EQ(sim.outputBits("y"), std::vector<bool>{true});
}

TEST(SimulatorRegression, UninitializedFlopReadIsFatalNotZero)
{
    Netlist nl;
    NetId d = nl.newNet("d"), q = nl.newNet("q");
    nl.addGate(GateType::DFF_P, {d}, q);
    nl.addPortOver("d", PortDir::Input, {d});
    nl.addPortOver("q", PortDir::Output, {q});
    netlist::Simulator sim(nl);
    sim.setInput("d", 1);
    sim.eval();
    EXPECT_THROW(sim.output("q"), FatalError); // never reset
    sim.reset();
    EXPECT_EQ(sim.output("q"), 0u);
    sim.step();
    EXPECT_EQ(sim.output("q"), 1u);
}

// ----------------------------------------------------------- VCD dump

TEST(Vcd, GoldenDump)
{
    Netlist nl;
    nl.setNetName(netlist::kConst0, "gnd");
    nl.setNetName(netlist::kConst1, "vcc");
    NetId a = nl.newNet("a"), y = nl.newNet("y");
    nl.addGate(GateType::NOT, {a}, y);
    nl.addPortOver("a", PortDir::Input, {a});
    nl.addPortOver("y", PortDir::Output, {y});
    EventSimulator sim(nl);
    sim.enableTrace();
    sim.setInput("a", 1);
    sim.eval();
    sim.setInput("a", 0);
    sim.eval();
    const char *golden =
        "$timescale 1ns $end\n"
        "$scope module top $end\n"
        "$var wire 1 ! gnd $end\n"
        "$var wire 1 \" vcc $end\n"
        "$var wire 1 # a $end\n"
        "$var wire 1 $ y $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n"
        "$dumpvars\n"
        "0!\n"
        "1\"\n"
        "1#\n"
        "x$\n"
        "$end\n"
        "#1\n"
        "0#\n"
        "0$\n"
        "#2\n"
        "1$\n";
    EXPECT_EQ(toVcd(sim), golden);
}

// ------------------------------------------------------------- x-lint

TEST(XLint, CleanDesignAndUndrivenNet)
{
    Netlist clean = twoConeNetlist();
    XLintReport ok = xLint(clean);
    EXPECT_TRUE(ok.clean());
    EXPECT_GT(ok.nets_checked, 0u);

    // A floating net feeding live logic must be flagged as read.
    // (OR, not AND: the lint drives inputs to 0, and AND's controlling
    // zero would resolve y despite the floating operand.)
    Netlist bad;
    NetId a = bad.newNet("a");
    NetId floating = bad.newNet("floating");
    NetId y = bad.newNet("y");
    bad.addGate(GateType::OR, {a, floating}, y);
    bad.addPortOver("a", PortDir::Input, {a});
    bad.addPortOver("y", PortDir::Output, {y});
    XLintReport rep = xLint(bad);
    ASSERT_FALSE(rep.clean());
    EXPECT_EQ(rep.numRead(), 2u); // the floating net and y itself
    bool found = false;
    for (const auto &o : rep.offenders)
        if (o.name == "floating") {
            found = true;
            EXPECT_TRUE(o.undriven);
            EXPECT_TRUE(o.read);
        }
    EXPECT_TRUE(found);
}

// -------------------------------------------------- asserts on traces

TEST(AssertCheck, PassFailAndIndeterminate)
{
    const char *src = R"(
        module m (a, b, y);
          input [1:0] a, b; output [2:0] y;
          assign y = a + b;
        endmodule
    )";
    core::CompileOptions co;
    co.verilogOpts().top = "m";
    core::CompileResult res = core::compile(src, co);
    ASSERT_FALSE(res.assembled.asserts.empty());

    EventSimulator sim(res.netlist);
    sim.setInput("a", 2);
    sim.setInput("b", 3);
    sim.eval();
    AssertTraceResult pass = checkAssertsOnState(res.assembled, sim);
    EXPECT_GT(pass.checked, 0u);
    EXPECT_TRUE(pass.ok());

    // An unset input leaves assert operands X: indeterminate, never a
    // silent pass.
    EventSimulator cold(res.netlist);
    cold.setInput("a", 1);
    cold.eval();
    AssertTraceResult ind = checkAssertsOnState(res.assembled, cold);
    EXPECT_GT(ind.indeterminate, 0u);

    // A trace from a corrupted netlist must violate the original
    // program's gate asserts.
    netlist::Netlist mutated = res.netlist;
    bool flipped = false;
    for (auto &g : mutated.gates()) {
        if (g.type == GateType::XOR) {
            g.type = GateType::XNOR;
            flipped = true;
            break;
        }
        if (g.type == GateType::AND) {
            g.type = GateType::OR;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped);
    EventSimulator bad(mutated);
    bad.setInput("a", 2);
    bad.setInput("b", 3);
    bad.eval();
    AssertTraceResult fail = checkAssertsOnState(res.assembled, bad);
    EXPECT_GT(fail.failed, 0u);
    EXPECT_FALSE(fail.offenders.empty());
}

// ------------------------------------------------ differential oracle

TEST(DiffCheck, PassesOnACorrectCompile)
{
    const char *src = R"(
        module ok (a, b, s, y);
          input [1:0] a, b; input s; output [2:0] y;
          assign y = s ? (a + b) : (a & b);
        endmodule
    )";
    core::CompileOptions co;
    co.verilogOpts().top = "ok";
    core::CompileResult res = core::compile(src, co);
    DiffReport rep = diffCheck(res);
    EXPECT_TRUE(rep.ok()) << rep.describe();
    EXPECT_TRUE(rep.exhaustive);
    EXPECT_EQ(rep.vectors_checked, 32u);
    EXPECT_GE(rep.ground_states_checked, 32u);
    EXPECT_TRUE(rep.exact_ground_states);
    EXPECT_GT(rep.asserts.checked, 0u);
    EXPECT_TRUE(rep.lint.clean());
}

TEST(DiffCheck, CatchesAnInjectedTechmapBug)
{
    // Simulate a tech-mapper bug: after compilation, one cell's type
    // is corrupted and the QMASM/Hamiltonian regenerated from the
    // corrupted netlist (exactly what a miscompiling techmap would
    // produce).  Checked against the pristine netlist as reference,
    // the oracle must report mismatches.
    const char *src = R"(
        module bug (a, b, y);
          input [1:0] a, b; output [2:0] y;
          assign y = a + b;
        endmodule
    )";
    core::CompileOptions co;
    co.verilogOpts().top = "bug";
    core::CompileResult res = core::compile(src, co);
    netlist::Netlist pristine = res.netlist;

    bool injected = false;
    for (auto &g : res.netlist.gates()) {
        if (g.type == GateType::XOR) {
            g.type = GateType::XNOR;
            injected = true;
            break;
        }
        if (g.type == GateType::AND) {
            g.type = GateType::OR;
            injected = true;
            break;
        }
    }
    ASSERT_TRUE(injected);
    res.qmasm_program = qmasm::netlistToQmasm(res.netlist);
    res.assembled = qmasm::assemble(res.qmasm_program, {});

    DiffCheckOptions opts;
    opts.reference = &pristine;
    DiffReport rep = diffCheck(res, opts);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.mismatches.empty());
}

TEST(DiffCheck, ReportsUnderconstrainedOutputs)
{
    // An output fed by a floating net: the simulator says X, the
    // Hamiltonian leaves the variable free — the oracle must flag it
    // rather than pass it.
    Netlist nl;
    nl.setName("floaty");
    NetId a = nl.newNet("a");
    NetId f = nl.newNet("floating");
    NetId y = nl.newNet("y");
    nl.addGate(GateType::OR, {a, f}, y);
    nl.addPortOver("a", PortDir::Input, {a});
    nl.addPortOver("y", PortDir::Output, {y});
    core::CompileResult res;
    res.netlist = nl;
    res.qmasm_program = qmasm::netlistToQmasm(nl);
    res.assembled = qmasm::assemble(res.qmasm_program, {});
    DiffReport rep = diffCheck(res);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.lint.clean());
    bool saw_x = false;
    for (const auto &m : rep.mismatches)
        if (m.detail.find("contains X/Z") != std::string::npos)
            saw_x = true;
    EXPECT_TRUE(saw_x);
}

} // namespace
} // namespace qac::sim
