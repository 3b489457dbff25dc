#include "programs.h"

#include <algorithm>
#include <set>

#include "qac/anneal/sampler.h"
#include "qac/util/strings.h"

namespace qacbench {

using namespace qac;

namespace {

Program
verilogProgram(std::string name, std::string source, std::string top,
               size_t unroll_steps = 0)
{
    Program p;
    p.name = std::move(name);
    p.source = std::move(source);
    auto &vo = p.opts.verilogOpts();
    vo.top = std::move(top);
    vo.unroll_steps = unroll_steps;
    p.opts.threads = 1;
    p.opts.cache.enabled = false;
    return p;
}

constexpr size_t kCounterSteps = 4;

using Ports = std::map<std::string, uint64_t>;

// Reference semantics of each program, written from its Verilog
// source, independent of QAC.
Ports
reference(const std::string &name, const Ports &in)
{
    if (name == "mux_add_sub") {
        uint64_t a = in.at("A"), b = in.at("B");
        return {{"Y", (in.at("sel") ? a - b : a + b) & 15}};
    }
    if (name == "circsat")
        return {{"y", circsatOutput(in.at("a"), in.at("b"), in.at("c"))}};
    if (name == "mult" || name == "mult2")
        return {{"C", in.at("A") * in.at("B")}};
    if (name == "australia")
        return {{"valid", australiaValid(in) ? 1u : 0u}};
    if (name == "counter") {
        Ports out;
        uint64_t v = in.at("var@0");
        for (size_t t = 0; t < kCounterSteps; ++t) {
            out[format("out@%zu", t)] = v;
            if (in.at(format("reset@%zu", t)))
                v = 0;
            else if (in.at(format("inc@%zu", t)))
                v = (v + 1) & 63;
        }
        out[format("var@%zu", kCounterSteps)] = v;
        return out;
    }
    return {};
}

uint64_t
portMask(const netlist::Port &p)
{
    return p.bits.size() >= 64 ? ~uint64_t{0}
                               : (uint64_t{1} << p.bits.size()) - 1;
}

} // namespace

Program
muxAddSub()
{
    // Fig. 2 (examples/mux_add_sub.v).
    return verilogProgram("mux_add_sub", R"(
module mux_add_sub (A, B, sel, Y);
  input [2:0] A, B;
  input sel;
  output [3:0] Y;
  assign Y = sel ? (A - B) : (A + B);
endmodule
)",
                          "mux_add_sub");
}

Program
circuitSat()
{
    // Listing 5, verbatim.
    return verilogProgram("circsat", R"(
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
)",
                          "circsat");
}

Program
multiplier(unsigned bits)
{
    // Listing 6 at 4 bits.
    Program p = verilogProgram(
        bits == 4 ? "mult" : format("mult%u", bits),
        format("module mult (A, B, C);\n"
               "  input [%u:0] A;\n"
               "  input [%u:0] B;\n"
               "  output [%u:0] C;\n"
               "  assign C = A * B;\n"
               "endmodule\n",
               bits - 1, bits - 1, 2 * bits - 1),
        "mult");
    return p;
}

Program
australia()
{
    // Listing 7, verbatim.
    return verilogProgram("australia", R"(
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD &&
                 SA != QLD && SA != NSW && SA != VIC && QLD != NSW &&
                 NSW != VIC && NSW != ACT;
endmodule
)",
                          "australia");
}

Program
counter()
{
    // Listing 3, verbatim, unrolled for four time steps.
    return verilogProgram("counter", R"(
module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + 1;
  assign out = var;
endmodule
)",
                          "count", kCounterSteps);
}

Program
randomCnf(uint64_t seed, uint32_t vars, uint32_t clauses)
{
    std::mt19937_64 rng(seed);
    std::vector<bool> planted(vars + 1);
    for (uint32_t v = 1; v <= vars; ++v)
        planted[v] = rng() & 1;
    std::string text = format("c planted random 3-CNF, seed %llu\n"
                              "p cnf %u %u\n",
                              static_cast<unsigned long long>(seed),
                              vars, clauses);
    std::uniform_int_distribution<uint32_t> pick(1, vars);
    for (uint32_t c = 0; c < clauses; ++c) {
        uint32_t v[3];
        do {
            v[0] = pick(rng), v[1] = pick(rng), v[2] = pick(rng);
        } while (v[0] == v[1] || v[1] == v[2] || v[0] == v[2]);
        int32_t lit[3];
        bool sat = false;
        while (!sat) {
            for (int k = 0; k < 3; ++k) {
                bool neg = rng() & 1;
                lit[k] = neg ? -static_cast<int32_t>(v[k])
                             : static_cast<int32_t>(v[k]);
                sat = sat || (planted[v[k]] != neg);
            }
        }
        text += format("%d %d %d 0\n", lit[0], lit[1], lit[2]);
    }
    Program p;
    p.name = "cnf";
    p.source = std::move(text);
    p.opts.dimacsOpts();
    p.opts.threads = 1;
    p.opts.cache.enabled = false;
    return p;
}

std::vector<Program>
compileSet(uint64_t seed)
{
    std::vector<Program> set = {muxAddSub(), circuitSat(), multiplier(4),
                                australia(), counter(),
                                randomCnf(seed, 24, 100)};
    std::mt19937_64 rng(seed);
    std::shuffle(set.begin(), set.end(), rng);
    return set;
}

std::string
checkForward(const std::string &name, const core::Executable &exe,
             std::mt19937_64 &rng, int vectors)
{
    const auto &nl = exe.compiled().netlist;
    if (nl.ports().empty())
        return "";
    for (int k = 0; k < vectors; ++k) {
        Ports in;
        for (const auto &p : nl.ports())
            if (p.dir == netlist::PortDir::Input)
                in[p.name] = rng() & portMask(p);
        Ports want = reference(name, in);
        if (want.empty())
            return "no reference for " + name;
        Ports got = exe.evaluate(in);
        for (const auto &[port, value] : want) {
            auto it = got.find(port);
            if (it == got.end())
                return name + ": no output port " + port;
            if (it->second != value)
                return format("%s: %s = %llu, reference %llu",
                              name.c_str(), port.c_str(),
                              static_cast<unsigned long long>(it->second),
                              static_cast<unsigned long long>(value));
        }
    }
    return "";
}

std::string
checkGroundStates(const std::string &name, const core::Executable &exe)
{
    const auto &res = exe.compiled();
    anneal::SamplerOpts so;
    so.common.threads = 1;
    auto set = anneal::makeSampler("exact", so)->sample(
        res.assembled.model);
    std::set<Ports> found;
    for (const auto *s : set.lowestBand()) {
        core::Executable::Candidate c;
        c.values = res.assembled.visibleValues(s->spins);
        Ports io;
        for (const auto &p : res.netlist.ports())
            io[p.name] = exe.portValue(c, p.name);
        found.insert(io);
    }
    std::set<Ports> want;
    std::vector<const netlist::Port *> inputs;
    for (const auto &p : res.netlist.ports())
        if (p.dir == netlist::PortDir::Input)
            inputs.push_back(&p);
    size_t in_bits = 0;
    for (const auto *p : inputs)
        in_bits += p->bits.size();
    for (uint64_t word = 0; word < (uint64_t{1} << in_bits); ++word) {
        Ports in;
        uint64_t rest = word;
        for (const auto *p : inputs) {
            in[p->name] = rest & portMask(*p);
            rest >>= p->bits.size();
        }
        Ports io = in;
        for (const auto &[port, value] : reference(name, in))
            io[port] = value;
        want.insert(io);
    }
    if (found != want)
        return format("%s: %zu distinct ground states, truth relation "
                      "has %zu rows",
                      name.c_str(), found.size(), want.size());
    return "";
}

const std::vector<std::string> &
australiaRegions()
{
    static const std::vector<std::string> regions = {
        "WA", "NT", "SA", "QLD", "NSW", "VIC", "ACT"};
    return regions;
}

bool
australiaValid(const std::map<std::string, uint64_t> &c)
{
    auto ne = [&](const char *x, const char *y) {
        return c.at(x) != c.at(y);
    };
    return ne("WA", "NT") && ne("WA", "SA") && ne("NT", "SA") &&
           ne("NT", "QLD") && ne("SA", "QLD") && ne("SA", "NSW") &&
           ne("SA", "VIC") && ne("QLD", "NSW") && ne("NSW", "VIC") &&
           ne("NSW", "ACT");
}

bool
circsatOutput(bool a, bool b, bool c)
{
    bool x4 = !c, x5 = a || b, x6 = !x4, x7 = a && b && x4;
    bool x8 = x5 || x6, x9 = x6 || x7;
    return x8 && x9 && x7;
}

} // namespace qacbench
