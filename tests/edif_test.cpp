/**
 * @file
 * Tests for the EDIF writer/reader pair (Section 4.2): structural
 * fidelity and exhaustive behavioural equivalence across the text
 * round trip.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "qac/artifact/qo.h"
#include "qac/core/compiler.h"
#include "qac/core/frontend.h"
#include "qac/edif/reader.h"
#include "qac/edif/writer.h"
#include "qac/netlist/opt.h"
#include "qac/netlist/simulate.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace qac::edif {
namespace {

using netlist::Netlist;
using netlist::PortDir;

Netlist
synthOpt(const char *src, const char *top)
{
    auto nl = verilog::synthesizeSource(src, top);
    netlist::optimize(nl);
    return nl;
}

std::vector<uint64_t>
table(const Netlist &nl)
{
    size_t in_bits = 0;
    for (const auto &p : nl.ports())
        if (p.dir == PortDir::Input)
            in_bits += p.width();
    netlist::Simulator sim(nl);
    std::vector<uint64_t> out;
    for (uint64_t v = 0; v < (uint64_t{1} << in_bits); ++v) {
        size_t used = 0;
        for (const auto &p : nl.ports()) {
            if (p.dir != PortDir::Input)
                continue;
            sim.setInput(p.name, v >> used);
            used += p.width();
        }
        sim.eval();
        uint64_t word = 0;
        size_t shift = 0;
        for (const auto &p : nl.ports()) {
            if (p.dir != PortDir::Output)
                continue;
            word |= sim.output(p.name) << shift;
            shift += p.width();
        }
        out.push_back(word);
    }
    return out;
}

TEST(EdifWriter, SanitizeIdent)
{
    EXPECT_EQ(sanitizeIdent("abc_1"), "abc_1");
    EXPECT_EQ(sanitizeIdent("c[1]"), "c_1_");
    EXPECT_EQ(sanitizeIdent("$n7"), "_n7");
    EXPECT_EQ(sanitizeIdent("2x"), "id_2x");
}

TEST(EdifWriter, StructureContainsExpectedStanzas)
{
    auto nl = synthOpt(
        "module m (a, b, y); input a, b; output y; "
        "assign y = a ^ b; endmodule",
        "m");
    std::string text = writeEdif(nl);
    // The pretty printer may break a stanza across lines, so check the
    // parsed structure rather than raw text.
    sexpr::Node root = sexpr::parse(text);
    EXPECT_NE(text.find("(edifVersion 2 0 0)"), std::string::npos);
    std::set<std::string> library_names;
    bool has_xor_cell = false, has_design = false, has_joined = false;
    std::function<void(const sexpr::Node &)> walk =
        [&](const sexpr::Node &n) {
            if (!n.isList())
                return;
            if (n.head() == "library" && n.size() > 1)
                library_names.insert(n[1].text());
            if (n.head() == "cell" && n.size() > 1 &&
                n[1].isAtom() && n[1].text() == "XOR")
                has_xor_cell = true;
            if (n.head() == "design")
                has_design = true;
            if (n.head() == "joined")
                has_joined = true;
            for (const auto &c : n.items())
                walk(c);
        };
    walk(root);
    EXPECT_TRUE(library_names.count("DEVICE"));
    EXPECT_TRUE(library_names.count("DESIGN"));
    EXPECT_TRUE(has_xor_cell);
    EXPECT_TRUE(has_design);
    EXPECT_TRUE(has_joined);
}

TEST(EdifWriter, ParsesAsSExpression)
{
    auto nl = synthOpt(
        "module m (a, y); input [1:0] a; output y; "
        "assign y = a[0] & a[1]; endmodule",
        "m");
    EXPECT_NO_THROW(sexpr::parse(writeEdif(nl)));
}

class RoundTrip : public ::testing::TestWithParam<
                      std::pair<const char *, const char *>>
{};

TEST_P(RoundTrip, BehaviourPreserved)
{
    auto [src, top] = GetParam();
    Netlist nl = synthOpt(src, top);
    Netlist back = readEdif(writeEdif(nl));
    EXPECT_EQ(back.name(), nl.name());
    EXPECT_EQ(back.numGates(), nl.numGates());
    ASSERT_EQ(back.ports().size(), nl.ports().size());
    EXPECT_EQ(table(back), table(nl));
}

INSTANTIATE_TEST_SUITE_P(
    Designs, RoundTrip,
    ::testing::Values(
        std::make_pair("module m (a, y); input a; output y; "
                       "assign y = ~a; endmodule",
                       "m"),
        std::make_pair("module m (s, a, b, c); input s, a, b; "
                       "output [1:0] c; "
                       "assign c = s ? a+b : a-b; endmodule",
                       "m"),
        std::make_pair("module m (a, b, p); input [2:0] a, b; "
                       "output [5:0] p; assign p = a * b; endmodule",
                       "m"),
        std::make_pair("module m (x, y); input [3:0] x; output y; "
                       "assign y = x == 4'd9; endmodule",
                       "m")));

TEST(EdifReader, ConstantsBecomeConstNets)
{
    auto nl = synthOpt(
        "module m (a, y); input a; output [1:0] y; "
        "assign y = {1'b1, a}; endmodule",
        "m");
    Netlist back = readEdif(writeEdif(nl));
    const auto *y = back.findPort("y");
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(y->bits[1], netlist::kConst1);
    netlist::Simulator sim(back);
    sim.setInput("a", 0);
    sim.eval();
    EXPECT_EQ(sim.output("y"), 0b10u);
}

TEST(EdifReader, MultiBitPortsReassembled)
{
    auto nl = synthOpt(
        "module m (a, y); input [3:0] a; output [3:0] y; "
        "assign y = ~a; endmodule",
        "m");
    Netlist back = readEdif(writeEdif(nl));
    EXPECT_EQ(back.findPort("a")->width(), 4u);
    EXPECT_EQ(back.findPort("y")->width(), 4u);
}

TEST(EdifReader, MalformedInputsFail)
{
    EXPECT_THROW(readEdif("(not-edif)"), FatalError);
    EXPECT_THROW(readEdif("(edif x (library L (edifLevel 0)))"),
                 FatalError);
    EXPECT_THROW(readEdif("((("), FatalError);
}

TEST(EdifReader, UnknownCellRejected)
{
    const char *bad = R"(
      (edif t
        (library DEVICE (edifLevel 0)
          (cell WEIRD (cellType GENERIC)
            (view netlist (viewType NETLIST)
              (interface (port Y (direction OUTPUT))))))
        (library DESIGN (edifLevel 0)
          (cell t (cellType GENERIC)
            (view netlist (viewType NETLIST)
              (interface (port y (direction OUTPUT)))
              (contents
                (instance g (viewRef netlist (cellRef WEIRD
                  (libraryRef DEVICE))))
                (net n (joined (portRef Y (instanceRef g))
                               (portRef y)))))))
        (design t (cellRef t (libraryRef DESIGN))))
    )";
    EXPECT_THROW(readEdif(bad), FatalError);
}

TEST(EdifLines, SizeMetricIsStable)
{
    // The Section 6.1 metric must be deterministic run to run.
    auto nl = synthOpt(
        "module m (a, b, y); input [1:0] a, b; output [1:0] y; "
        "assign y = a & b; endmodule",
        "m");
    EXPECT_EQ(countLines(writeEdif(nl)), countLines(writeEdif(nl)));
}


TEST(EdifRoundTrip, SequentialNetlistWithDffs)
{
    auto nl = verilog::synthesizeSource(
        "module c (clk, d, q); input clk, d; output q; reg a, b; "
        "always @(posedge clk) begin a <= d; b <= a; end "
        "assign q = b; endmodule",
        "c");
    netlist::optimize(nl);
    ASSERT_TRUE(nl.isSequential());
    Netlist back = readEdif(writeEdif(nl));
    EXPECT_TRUE(back.isSequential());
    EXPECT_EQ(back.countGates(cells::GateType::DFF_P), 2u);
    netlist::Simulator sim(back);
    sim.reset();
    sim.setInput("d", 1);
    sim.eval();
    sim.step();
    sim.setInput("d", 0);
    sim.eval();
    sim.step();
    EXPECT_EQ(sim.output("q"), 1u); // the 1 arrives after two stages
}

// ------------------------------------------------- seed-pinned goldens

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One row of tests/golden/compile_stats.txt; top is "-" for a
 *  DIMACS source. */
struct Golden
{
    std::string program, source, top;
    std::string frontend; ///< chosen by the source's extension
    size_t unroll_steps = 0;
    std::string qo_digest;
    core::CompileResult::Stats stats;
};

const std::string kGoldenDir = std::string(QAC_SOURCE_DIR) + "/tests/golden";

std::vector<Golden>
goldens()
{
    std::vector<Golden> out;
    std::istringstream rows(readFile(kGoldenDir + "/compile_stats.txt"));
    std::string line;
    while (std::getline(rows, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        Golden g;
        auto &s = g.stats;
        row >> g.program >> g.source >> g.top >> g.unroll_steps >>
            g.qo_digest >> s.edif_lines >> s.qmasm_lines >>
            s.stdcell_lines >> s.gates >> s.logical_vars;
        EXPECT_TRUE(row) << line;
        g.frontend = core::frontendForPath(g.source);
        out.push_back(g);
    }
    EXPECT_EQ(out.size(), 7u);
    return out;
}

core::CompileResult
compileGolden(const Golden &g)
{
    core::CompileOptions co;
    if (g.frontend == "dimacs") {
        co.dimacsOpts();
    } else {
        co.verilogOpts().top = g.top;
        co.verilogOpts().unroll_steps = g.unroll_steps;
    }
    co.cache.enabled = false;
    return core::compile(readFile(std::string(QAC_SOURCE_DIR) + "/" +
                                  g.source),
                         co);
}

/** The text sexpr::Node's pretty printer gives for @p edif's tree. */
std::string
reprinted(const std::string &edif)
{
    return sexpr::parse(edif).toString(/*pretty=*/true) + "\n";
}

// EDIF bytes, .qo digests and CompileStats recorded from the compiler
// as it was before compile stopped re-reading its EDIF (the golden
// files), for the paper's example programs, plus a planted 3-CNF
// through the DIMACS frontend (no EDIF).
TEST(EdifGolden, CompileMatchesRecordedBytesAndStats)
{
    for (const Golden &g : goldens()) {
        SCOPED_TRACE(g.program);
        core::CompileResult res = compileGolden(g);
        EXPECT_EQ(res.frontend, g.frontend);
        EXPECT_EQ(res.edif_text,
                  g.frontend == "dimacs"
                      ? ""
                      : readFile(kGoldenDir + "/" + g.program + ".edif"));
        EXPECT_EQ(artifact::qoDigestHex(artifact::serializeQo(res)),
                  g.qo_digest);
        EXPECT_EQ(res.stats.edif_lines, g.stats.edif_lines);
        EXPECT_EQ(res.stats.qmasm_lines, g.stats.qmasm_lines);
        EXPECT_EQ(res.stats.stdcell_lines, g.stats.stdcell_lines);
        EXPECT_EQ(res.stats.gates, g.stats.gates);
        EXPECT_EQ(res.stats.logical_vars, g.stats.logical_vars);
    }
}

// compile() feeds edif2qmasm the netlist its EDIF denotes without
// parsing the text; the .qo loader re-reads the text.  Both must agree.
TEST(EdifDenoted, CompiledNetlistIsWhatItsEdifDenotes)
{
    for (const Golden &g : goldens()) {
        if (g.frontend == "dimacs")
            continue; // no EDIF
        SCOPED_TRACE(g.program);
        core::CompileResult res = compileGolden(g);
        Netlist back = readEdif(res.edif_text);
        EXPECT_TRUE(res.netlist == back);
        EXPECT_EQ(res.netlist.numNets(), back.numNets());
        EXPECT_EQ(res.netlist.gates(), back.gates());
        EXPECT_EQ(res.netlist.ports(), back.ports());
        EXPECT_EQ(reprinted(res.edif_text), res.edif_text);
    }
}

/** denotedNetlist(nl) against the text round trip, plus layout. */
void
expectDenotes(const Netlist &nl)
{
    std::string text = writeEdif(nl);
    EXPECT_EQ(reprinted(text), text);
    Netlist denoted = denotedNetlist(nl);
    Netlist back = readEdif(text);
    EXPECT_TRUE(denoted == back);
    EXPECT_EQ(denoted.name(), back.name());
    ASSERT_EQ(denoted.numNets(), back.numNets());
    for (netlist::NetId n = 0; n < denoted.numNets(); ++n)
        EXPECT_EQ(denoted.netName(n), back.netName(n)) << n;
    EXPECT_EQ(denoted.gates(), back.gates());
    EXPECT_EQ(denoted.ports(), back.ports());
}

TEST(EdifDenoted, NamesThatNeedRenamingAndMerging)
{
    Netlist nl;
    nl.setName("top \"quoted\" \\ name");
    netlist::NetId x = nl.addPort("x", PortDir::Input, 1).bits[0];
    netlist::NetId y = nl.addPort("y", PortDir::Input, 1).bits[0];
    netlist::NetId w = nl.newNet("w");
    nl.addGate(cells::GateType::AND, {x, y}, w);
    netlist::NetId z = nl.addPort("z", PortDir::Output, 1).bits[0];
    nl.addGate(cells::GateType::NOT, {w}, z);
    // Two input nets under one name become one net on reading, and a
    // net named like a constant net is still an ordinary net.
    nl.setNetName(x, "dup");
    nl.setNetName(y, "dup");
    nl.setNetName(w, "$const0");
    expectDenotes(nl);
    EXPECT_EQ(denotedNetlist(nl).gates()[0].inputs[0],
              denotedNetlist(nl).gates()[0].inputs[1]);
}

TEST(EdifDenoted, PortBitsWhoseIdentifiersCollide)
{
    Netlist nl;
    auto a = nl.addPort("a", PortDir::Input, 2).bits;
    netlist::NetId a0 = nl.addPort("a_0_", PortDir::Input, 1).bits[0];
    auto y = nl.addPort("y", PortDir::Output, 2).bits;
    nl.addGate(cells::GateType::XOR, {a[0], a0}, y[0]);
    nl.addGate(cells::GateType::OR, {a[1], a0}, y[1]);
    expectDenotes(nl);
}

TEST(EdifDenoted, ConstantsDanglingNetsAndAnEmptyDesign)
{
    Netlist nl;
    nl.setName("consts");
    netlist::NetId a = nl.addPort("a", PortDir::Input, 1).bits[0];
    nl.addPort("unused", PortDir::Input, 3);
    netlist::NetId t = nl.newNet("t");
    nl.addGate(cells::GateType::AND, {a, netlist::kConst1}, t);
    nl.addPortOver("y", PortDir::Output, {t, netlist::kConst0, a});
    nl.addPortOver("tied", PortDir::Input, {netlist::kConst1});
    expectDenotes(nl);

    Netlist empty;
    empty.addPort("in", PortDir::Input, 2);
    expectDenotes(empty);
    EXPECT_NE(writeEdif(empty).find("(library DEVICE (edifLevel 0)"),
              std::string::npos);
}

TEST(EdifDenoted, GateOnADanglingNetFailsLikeTheReader)
{
    Netlist nl;
    netlist::NetId a = nl.addPort("a", PortDir::Input, 1).bits[0];
    nl.addGate(cells::GateType::NOT, {a}, nl.newNet("nowhere"));
    std::string text = writeEdif(nl);
    EXPECT_THROW(readEdif(text), FatalError);
    EXPECT_THROW(denotedNetlist(nl), FatalError);
}

/** EDIF for a netlist that breaks a driver rule: a typed error, not
 *  the abort Netlist::check() gives the compiler's own netlists. */
void
expectDriverRuleRejected(const Netlist &nl, const std::string &what)
{
    try {
        readEdif(writeEdif(nl));
        ADD_FAILURE() << "accepted: " << what;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(EdifReader, TwoInstancesDrivingOneNetRejected)
{
    Netlist nl;
    netlist::NetId a = nl.addPort("a", PortDir::Input, 1).bits[0];
    netlist::NetId y = nl.addPort("y", PortDir::Output, 1).bits[0];
    nl.addGate(cells::GateType::NOT, {a}, y);
    nl.addGate(cells::GateType::BUF, {a}, y);
    expectDriverRuleRejected(nl, "driven by instances");
}

TEST(EdifReader, InstanceDrivingGndOrVccRejected)
{
    for (netlist::NetId c : {netlist::kConst0, netlist::kConst1}) {
        Netlist nl;
        netlist::NetId a = nl.addPort("a", PortDir::Input, 1).bits[0];
        nl.addPortOver("y", PortDir::Output, {c});
        nl.addGate(cells::GateType::NOT, {a}, c);
        expectDriverRuleRejected(nl, "drives a GND/VCC net");
    }
}

TEST(EdifReader, InstanceDrivingInputPortRejected)
{
    Netlist nl;
    netlist::NetId a = nl.addPort("a", PortDir::Input, 1).bits[0];
    netlist::NetId b = nl.addPort("b", PortDir::Input, 1).bits[0];
    nl.addGate(cells::GateType::NOT, {a}, b);
    expectDriverRuleRejected(nl, "drives input port b");
}

// Instance names are zero-padded to five digits, so from gate 100000
// on, instance-name order (the order the reader adds gates in) is no
// longer gate order.
TEST(EdifDenoted, SixDigitInstanceNamesReorderGates)
{
    Netlist nl;
    netlist::NetId net = nl.addPort("a", PortDir::Input, 1).bits[0];
    for (size_t i = 0; i < 100002; ++i) {
        netlist::NetId next = nl.newNet();
        nl.addGate(i % 2 ? cells::GateType::NOT : cells::GateType::BUF,
                   {net}, next);
        net = next;
    }
    nl.addPortOver("y", PortDir::Output, {net});
    Netlist denoted = denotedNetlist(nl);
    EXPECT_TRUE(denoted == readEdif(writeEdif(nl)));
    // "id100000" sorts between "id10000" and "id10001".
    EXPECT_EQ(denoted.gates()[10001].type, cells::GateType::BUF);
    EXPECT_EQ(denoted.gates()[10003].type, cells::GateType::NOT);
}

} // namespace
} // namespace qac::edif
