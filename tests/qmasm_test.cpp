/**
 * @file
 * Tests for the QMASM layer: parsing, macro expansion, assembly to the
 * logical Ising model, the generated standard-cell library, and the
 * edif2qmasm translation.  The key end-to-end property (Section 4.3):
 * the assembled Hamiltonian's ground states are exactly the circuit's
 * valid input/output relations.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <random>

#include "qac/anneal/exact.h"
#include "qac/edif/writer.h"
#include "qac/netlist/opt.h"
#include "qac/netlist/simulate.h"
#include "qac/qmasm/assemble.h"
#include "qac/qmasm/edif2qmasm.h"
#include "qac/qmasm/parser.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"
#include "qac/verilog/synth.h"

namespace qac::qmasm {
namespace {

// ---------------------------------------------------------------- parser

TEST(Parser, WeightAndCoupling)
{
    Program p = parseProgram("A 1.5\nA B -0.25\n");
    ASSERT_EQ(p.statements.size(), 2u);
    EXPECT_EQ(p.statements[0].kind, Statement::Kind::Weight);
    EXPECT_DOUBLE_EQ(p.statements[0].value, 1.5);
    EXPECT_EQ(p.statements[1].kind, Statement::Kind::Coupling);
    EXPECT_EQ(p.statements[1].sym2, "B");
}

TEST(Parser, ChainPinAlias)
{
    Program p = parseProgram("A = B\nC := true\nD := 0\nE <-> F\n");
    EXPECT_EQ(p.statements[0].kind, Statement::Kind::Chain);
    EXPECT_EQ(p.statements[1].kind, Statement::Kind::Pin);
    EXPECT_TRUE(p.statements[1].pin_value);
    EXPECT_FALSE(p.statements[2].pin_value);
    EXPECT_EQ(p.statements[3].kind, Statement::Kind::Alias);
}

TEST(Parser, CommentsAndBlanks)
{
    Program p = parseProgram("# header\n\nA 1 # trailing\n");
    ASSERT_EQ(p.statements.size(), 2u);
    EXPECT_EQ(p.statements[0].kind, Statement::Kind::Comment);
    EXPECT_EQ(p.statements[1].kind, Statement::Kind::Weight);
}

TEST(Parser, MacroDefinition)
{
    // Shaped like the paper's Listing 2.
    Program p = parseProgram(
        "!begin_macro OR\n"
        "  assert Y = A|B\n"
        "  A 0.5\n"
        "  B 0.5\n"
        "  Y -1\n"
        "  A B 0.5\n"
        "  A Y -1\n"
        "  B Y -1\n"
        "!end_macro OR\n"
        "!use_macro OR my_or\n");
    ASSERT_EQ(p.macros.size(), 1u);
    EXPECT_EQ(p.macros[0].name, "OR");
    EXPECT_EQ(p.macros[0].body.size(), 7u);
    ASSERT_EQ(p.statements.size(), 1u);
    EXPECT_EQ(p.statements[0].kind, Statement::Kind::UseMacro);
    EXPECT_EQ(p.statements[0].sym2, "my_or");
}

TEST(Parser, IncludeResolution)
{
    auto resolver = [](const std::string &name)
        -> std::optional<std::string> {
        if (name == "lib.qmasm")
            return std::string("!begin_macro N\nA Y 1\n!end_macro N\n");
        return std::nullopt;
    };
    Program p =
        parseProgram("!include \"lib.qmasm\"\n!use_macro N g\n",
                     resolver);
    EXPECT_NE(p.findMacro("N"), nullptr);
    EXPECT_THROW(parseProgram("!include \"missing\"\n", resolver),
                 FatalError);
    EXPECT_THROW(parseProgram("!include \"x\"\n"), FatalError);
}

TEST(Parser, Errors)
{
    EXPECT_THROW(parseProgram("A B C D\n"), FatalError);
    EXPECT_THROW(parseProgram("A notanumber\n"), FatalError);
    EXPECT_THROW(parseProgram("!end_macro X\n"), FatalError);
    EXPECT_THROW(parseProgram("!begin_macro X\nA 1\n"), FatalError);
    EXPECT_THROW(parseProgram("!bogus\n"), FatalError);
    EXPECT_THROW(parseProgram("A := maybe\n"), FatalError);
}

TEST(Parser, RoundTripThroughToString)
{
    const char *src = "!begin_macro M\n  A 0.5\n  A Y -1\n"
                      "!end_macro M\n!use_macro M g\ng.Y := true\n";
    Program p1 = parseProgram(src);
    Program p2 = parseProgram(p1.toString());
    EXPECT_EQ(p1.toString(), p2.toString());
}

// -------------------------------------------------------------- assemble

TEST(Assemble, ChainMergingCollapsesVariables)
{
    Program p = parseProgram("A 1\nB -1\nA = B\n");
    Assembled merged = assemble(p);
    EXPECT_EQ(merged.model.numVars(), 1u);
    // h coefficients merge additively: 1 + (-1) = 0.
    EXPECT_DOUBLE_EQ(merged.model.linear(0), 0.0);
    EXPECT_EQ(merged.var("A"), merged.var("B"));

    AssembleOptions no_merge;
    no_merge.merge_chains = false;
    Assembled kept = assemble(p, no_merge);
    EXPECT_EQ(kept.model.numVars(), 2u);
    EXPECT_LT(kept.model.quadratic(0, 1), 0.0); // ferromagnetic chain
}

TEST(Assemble, DefaultChainStrengthIsTwiceMaxJ)
{
    // "defaults to a magnitude of twice the largest-in-magnitude J
    // value that appears literally in the code" (Section 4.3.5).
    Program p = parseProgram("A B -1.5\nC = D\n");
    AssembleOptions opts;
    opts.merge_chains = false;
    Assembled a = assemble(p, opts);
    EXPECT_DOUBLE_EQ(a.chain_strength_used, 3.0);
    EXPECT_DOUBLE_EQ(a.model.quadratic(a.var("C"), a.var("D")), -3.0);
}

TEST(Assemble, PinsBiasTowardValue)
{
    Program p = parseProgram("A B 1\nA := true\nB := false\n");
    Assembled a = assemble(p);
    EXPECT_LT(a.model.linear(a.var("A")), 0.0); // favor +1
    EXPECT_GT(a.model.linear(a.var("B")), 0.0); // favor -1
    ASSERT_EQ(a.pins.size(), 2u);
}

TEST(Assemble, AliasAlwaysMerges)
{
    Program p = parseProgram("A <-> B\nA 1\n");
    AssembleOptions opts;
    opts.merge_chains = false;
    Assembled a = assemble(p, opts);
    EXPECT_EQ(a.var("A"), a.var("B"));
}

TEST(Assemble, MergedSelfCouplingBecomesOffset)
{
    Program p = parseProgram("A = B\nA B -5\n");
    Assembled a = assemble(p);
    EXPECT_EQ(a.model.numVars(), 1u);
    EXPECT_DOUBLE_EQ(a.energy_offset, -5.0);
}

TEST(Assemble, InternalSymbolsHidden)
{
    Program p = parseProgram("x 1\n$hidden 1\ninst.$a 1\n");
    Assembled a = assemble(p);
    auto values = a.visibleValues(ising::SpinVector(3, 1));
    EXPECT_EQ(values.size(), 1u);
    EXPECT_TRUE(values.count("x"));
}

TEST(Assemble, PreferVisibleNameForMergedVar)
{
    Program p = parseProgram("$g0.Y = out\n");
    Assembled a = assemble(p);
    EXPECT_EQ(a.var_names[a.var("out")], "out");
}

TEST(Assemble, AssertEvaluation)
{
    Program p = parseProgram("Y 1\nA 1\nB 1\nassert Y = A&B\n");
    Assembled a = assemble(p);
    uint32_t y = a.var("Y"), va = a.var("A"), vb = a.var("B");
    ising::SpinVector good(3, -1);
    good[y] = -1;
    EXPECT_TRUE(a.checkAsserts(good));
    good[va] = good[vb] = 1;
    std::string failed;
    EXPECT_FALSE(a.checkAsserts(good, &failed));
    EXPECT_EQ(failed, "Y = A&B");
    good[y] = 1;
    EXPECT_TRUE(a.checkAsserts(good));
}

// Macro expansion, seen through the assembled symbol table: "After
// instantiating AND3 with !use_macro AND3 my_and, one can refer to
// my_and.A, my_and.B, ..." (Section 4.3.5).
TEST(Assemble, MacroSymbolsArePrefixed)
{
    Program p = parseProgram(
        "!begin_macro M\nA 1\nA B -1\nassert Y = A&B\n!end_macro M\n"
        "!use_macro M inst\n");
    Assembled a = assemble(p);
    EXPECT_EQ(a.var_names, (std::vector<std::string>{"inst.A", "inst.B"}));
    EXPECT_EQ(a.sym_to_var.size(), 2u);
    EXPECT_DOUBLE_EQ(a.model.linear(a.var("inst.A")), 1.0);
    EXPECT_DOUBLE_EQ(a.model.quadratic(0, 1), -1.0);
    EXPECT_EQ(a.asserts,
              std::vector<std::string>{"inst.Y = inst.A&inst.B"});
}

TEST(Assemble, NestedMacroSymbols)
{
    Program p = parseProgram(
        "!begin_macro INNER\nX 1\n!end_macro INNER\n"
        "!begin_macro OUTER\n!use_macro INNER sub\nY 2\n"
        "!end_macro OUTER\n"
        "!use_macro OUTER top\n");
    Assembled a = assemble(p);
    EXPECT_EQ(a.var_names,
              (std::vector<std::string>{"top.sub.X", "top.Y"}));
}

TEST(Assemble, UnknownMacroFails)
{
    Program p = parseProgram("!use_macro NOPE g\n");
    EXPECT_THROW(assemble(p), FatalError);
    Program loop = parseProgram(
        "!begin_macro R\n!use_macro R r\n!end_macro R\n!use_macro R g\n");
    EXPECT_THROW(assemble(loop), FatalError); // recursion too deep
}

TEST(Assemble, AssertTextKeepsLiterals)
{
    Program p = parseProgram("!begin_macro M\nA 1\n"
                             "assert Y = (A & true) | 1\n!end_macro M\n"
                             "!use_macro M g\n");
    EXPECT_EQ(assemble(p).asserts,
              std::vector<std::string>{"g.Y = (g.A & true) | 1"});
}

TEST(AssertExpr, OperatorsAndPrecedence)
{
    std::map<std::string, bool> v{{"a", true}, {"b", false},
                                  {"c", true}};
    EXPECT_TRUE(evalAssertExpr("a", v));
    EXPECT_FALSE(evalAssertExpr("~a", v));
    EXPECT_TRUE(evalAssertExpr("a | b", v));
    EXPECT_FALSE(evalAssertExpr("a & b", v));
    EXPECT_TRUE(evalAssertExpr("a ^ b", v));
    EXPECT_TRUE(evalAssertExpr("a = c", v));
    EXPECT_TRUE(evalAssertExpr("a != b", v));
    EXPECT_TRUE(evalAssertExpr("a & c | b", v));      // (a&c) | b
    EXPECT_TRUE(evalAssertExpr("~(a & b)", v));
    EXPECT_TRUE(evalAssertExpr("b = b & a", v));      // b = (b&a)
    EXPECT_TRUE(evalAssertExpr("true & 1", v));
    EXPECT_FALSE(evalAssertExpr("false | 0", v));
    EXPECT_THROW(evalAssertExpr("missing", v), FatalError);
    EXPECT_THROW(evalAssertExpr("(a", v), FatalError);
}

// ------------------------------------------------------ assembler parity

/**
 * The assembler as it was before the one-walk lowering, kept as the
 * reference: expand every macro into copies of its statements with
 * prefixed symbols, then intern, unite, number and emit from the
 * copies.
 */
namespace reference {

struct UnionFind
{
    std::vector<uint32_t> parent;

    uint32_t
    find(uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void
    unite(uint32_t a, uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }
};

bool
isSymChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '$' || c == '.' || c == '[' || c == ']';
}

std::string
prefixAssertText(const std::string &text, const std::string &prefix)
{
    if (prefix.empty())
        return text;
    std::string out;
    size_t i = 0;
    while (i < text.size()) {
        char c = text[i];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
            c == '$') {
            size_t start = i;
            while (i < text.size() && isSymChar(text[i]))
                ++i;
            std::string sym = text.substr(start, i - start);
            if (sym == "true" || sym == "false")
                out += sym;
            else
                out += prefix + sym;
        } else {
            out += c;
            ++i;
        }
    }
    return out;
}

void
expandInto(const Program &prog, const std::vector<Statement> &stmts,
           const std::string &prefix, int depth,
           std::vector<Statement> &out)
{
    if (depth > 32)
        fatal("qmasm: macro recursion too deep");
    for (const auto &st : stmts) {
        switch (st.kind) {
          case Statement::Kind::UseMacro: {
            const Macro *m = prog.findMacro(st.sym1);
            if (!m)
                fatal("qmasm line %zu: unknown macro '%s'", st.line,
                      st.sym1.c_str());
            expandInto(prog, m->body, prefix + st.sym2 + ".", depth + 1,
                       out);
            break;
          }
          case Statement::Kind::Comment:
            break;
          case Statement::Kind::Assert: {
            Statement copy = st;
            copy.text = prefixAssertText(st.text, prefix);
            out.push_back(std::move(copy));
            break;
          }
          default: {
            Statement copy = st;
            if (!copy.sym1.empty())
                copy.sym1 = prefix + copy.sym1;
            if (!copy.sym2.empty())
                copy.sym2 = prefix + copy.sym2;
            out.push_back(std::move(copy));
            break;
          }
        }
    }
}

Assembled
assemble(const Program &prog, const AssembleOptions &opts)
{
    std::vector<Statement> stmts;
    expandInto(prog, prog.statements, "", 0, stmts);

    std::unordered_map<std::string, uint32_t> intern;
    std::vector<std::string> names;
    auto sym_id = [&](const std::string &s) {
        auto [it, inserted] =
            intern.emplace(s, static_cast<uint32_t>(names.size()));
        if (inserted)
            names.push_back(s);
        return it->second;
    };
    for (const auto &st : stmts) {
        switch (st.kind) {
          case Statement::Kind::Weight:
          case Statement::Kind::Pin:
            sym_id(st.sym1);
            break;
          case Statement::Kind::Coupling:
          case Statement::Kind::Chain:
          case Statement::Kind::Alias:
            sym_id(st.sym1);
            sym_id(st.sym2);
            break;
          default:
            break;
        }
    }

    UnionFind uf;
    uf.parent.resize(names.size());
    for (uint32_t i = 0; i < uf.parent.size(); ++i)
        uf.parent[i] = i;
    for (const auto &st : stmts) {
        if (st.kind == Statement::Kind::Alias ||
            (st.kind == Statement::Kind::Chain && opts.merge_chains))
            uf.unite(sym_id(st.sym1), sym_id(st.sym2));
    }

    Assembled out;
    std::unordered_map<uint32_t, uint32_t> root_to_var;
    for (uint32_t i = 0; i < names.size(); ++i) {
        uint32_t r = uf.find(i);
        auto [it, inserted] = root_to_var.emplace(
            r, static_cast<uint32_t>(out.var_names.size()));
        if (inserted)
            out.var_names.push_back(names[r]);
        uint32_t v = it->second;
        out.sym_to_var.emplace(names[i], v);
        if (isInternalSymbol(out.var_names[v]) &&
            !isInternalSymbol(names[i]))
            out.var_names[v] = names[i];
    }
    out.model.resize(out.var_names.size());

    double max_j = 0.0;
    double max_h = 0.0;
    for (const auto &st : stmts) {
        if (st.kind == Statement::Kind::Coupling)
            max_j = std::max(max_j, std::abs(st.value));
        if (st.kind == Statement::Kind::Weight)
            max_h = std::max(max_h, std::abs(st.value));
    }
    const double chain_str = max_j > 0 ? 2.0 * max_j
                                       : (max_h > 0 ? 2.0 * max_h : 2.0);
    out.chain_strength_used = chain_str;
    out.pin_strength_used = chain_str;

    auto var_of = [&](const std::string &s) {
        return root_to_var.at(uf.find(sym_id(s)));
    };
    for (const auto &st : stmts) {
        switch (st.kind) {
          case Statement::Kind::Weight:
            out.model.addLinear(var_of(st.sym1), st.value);
            break;
          case Statement::Kind::Coupling: {
            uint32_t a = var_of(st.sym1);
            uint32_t b = var_of(st.sym2);
            if (a == b)
                out.energy_offset += st.value;
            else
                out.model.addQuadratic(a, b, st.value);
            break;
          }
          case Statement::Kind::Chain: {
            if (opts.merge_chains)
                break;
            uint32_t a = var_of(st.sym1);
            uint32_t b = var_of(st.sym2);
            if (a != b)
                out.model.addQuadratic(a, b, -chain_str);
            break;
          }
          case Statement::Kind::Pin:
            out.model.addLinear(var_of(st.sym1),
                                st.pin_value ? -chain_str : chain_str);
            out.pins.emplace_back(st.sym1, st.pin_value);
            break;
          case Statement::Kind::Assert:
            out.asserts.push_back(st.text);
            break;
          default:
            break;
        }
    }
    return out;
}

} // namespace reference

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** One random primitive statement (or comment) over @p syms. */
Statement
randomStatement(std::mt19937_64 &rng, const std::vector<std::string> &syms)
{
    static const double kLiterals[] = {-2.0, -1.0, -0.5, 0.0,
                                       0.25, 1.0,  1.5,  3.0};
    std::uniform_real_distribution<double> real(-4.0, 4.0);
    auto sym = [&] { return syms[rng() % syms.size()]; };
    Statement st;
    st.value = rng() % 2 ? kLiterals[rng() % 8] : real(rng);
    switch (rng() % 8) {
      case 0:
      case 1:
        st.kind = Statement::Kind::Weight;
        st.sym1 = sym();
        break;
      case 2:
      case 3:
        st.kind = Statement::Kind::Coupling;
        st.sym1 = sym();
        st.sym2 = sym();
        break;
      case 4:
        st.kind = Statement::Kind::Chain;
        st.sym1 = sym();
        st.sym2 = sym();
        break;
      case 5:
        st.kind = Statement::Kind::Alias;
        st.sym1 = sym();
        st.sym2 = sym();
        break;
      case 6:
        st.kind = Statement::Kind::Pin;
        st.sym1 = sym();
        st.pin_value = rng() % 2;
        break;
      default:
        if (rng() % 2) {
            st.kind = Statement::Kind::Assert;
            st.text = sym() + " = (" + sym() + " & true) | ~" + sym();
        } else {
            st.kind = Statement::Kind::Comment;
            st.text = "note on " + sym();
        }
        break;
    }
    return st;
}

Statement
useMacro(const std::string &macro, const std::string &inst)
{
    Statement st;
    st.kind = Statement::Kind::UseMacro;
    st.sym1 = macro;
    st.sym2 = inst;
    return st;
}

/**
 * A random program: up to four macros, each free to instantiate the
 * ones before it (under an instance name that may repeat), and a main
 * program that instantiates them as g0, g1 and g0 again while also
 * naming symbols such as g0.A before or after any instance exists.
 */
Program
randomProgram(std::mt19937_64 &rng)
{
    const std::vector<std::string> local = {"A", "B", "C", "Y",
                                            "$t", "$u.v", "x[0]"};
    const std::vector<std::string> top = {"a", "b", "$c", "g0.A",
                                          "g0.Y", "g1.B", "g0.u.A"};
    const std::vector<std::string> insts = {"g0", "g1", "g0"};
    Program p;
    const size_t num_macros = 1 + rng() % 4;
    for (size_t m = 0; m < num_macros; ++m) {
        Macro mac;
        mac.name = format("M%zu", m);
        for (size_t k = 1 + rng() % 6; k > 0; --k) {
            if (m > 0 && rng() % 3 == 0)
                mac.body.push_back(useMacro(format("M%zu", size_t(rng() % m)),
                                            rng() % 2 ? "u" : "v"));
            else
                mac.body.push_back(randomStatement(rng, local));
        }
        p.macros.push_back(std::move(mac));
    }
    for (size_t k = 2 + rng() % 12; k > 0; --k) {
        if (rng() % 3 == 0)
            p.statements.push_back(
                useMacro(format("M%zu", size_t(rng() % num_macros)),
                         insts[rng() % insts.size()]));
        else
            p.statements.push_back(randomStatement(rng, top));
    }
    return p;
}

void
expectSameAssembly(const Assembled &got, const Assembled &want)
{
    EXPECT_EQ(got.var_names, want.var_names);
    EXPECT_EQ(got.sym_to_var, want.sym_to_var);
    EXPECT_EQ(got.pins, want.pins);
    EXPECT_EQ(got.asserts, want.asserts);
    EXPECT_EQ(bits(got.chain_strength_used), bits(want.chain_strength_used));
    EXPECT_EQ(bits(got.pin_strength_used), bits(want.pin_strength_used));
    EXPECT_EQ(bits(got.energy_offset), bits(want.energy_offset));
    ASSERT_EQ(got.model.numVars(), want.model.numVars());
    for (uint32_t i = 0; i < got.model.numVars(); ++i)
        EXPECT_EQ(bits(got.model.linear(i)), bits(want.model.linear(i)))
            << i;
    auto got_j = got.model.quadraticTerms();
    auto want_j = want.model.quadraticTerms();
    ASSERT_EQ(got_j.size(), want_j.size());
    for (size_t k = 0; k < got_j.size(); ++k) {
        EXPECT_EQ(got_j[k].i, want_j[k].i) << k;
        EXPECT_EQ(got_j[k].j, want_j[k].j) << k;
        EXPECT_EQ(bits(got_j[k].value), bits(want_j[k].value)) << k;
    }
}

TEST(AssemblerParity, RandomProgramsMatchExpandThenIntern)
{
    size_t nested = 0, offsets = 0, pins = 0, asserts = 0, merged = 0;
    for (uint64_t seed = 1; seed <= 400; ++seed) {
        std::mt19937_64 rng(seed);
        Program p = randomProgram(rng);
        for (bool merge : {true, false}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " merge "
                                            << merge << "\n"
                                            << p.toString());
            AssembleOptions opts;
            opts.merge_chains = merge;
            Assembled got = assemble(p, opts);
            expectSameAssembly(got, reference::assemble(p, opts));
            if (HasFailure())
                return;
            offsets += got.energy_offset != 0.0;
            pins += !got.pins.empty();
            asserts += !got.asserts.empty();
            merged += got.var_names.size() < got.sym_to_var.size();
        }
        for (const auto &m : p.macros)
            for (const auto &st : m.body)
                nested += st.kind == Statement::Kind::UseMacro;
    }
    // The generator reaches every case it is meant to cover.
    EXPECT_GT(nested, 0u);
    EXPECT_GT(offsets, 0u);
    EXPECT_GT(pins, 0u);
    EXPECT_GT(asserts, 0u);
    EXPECT_GT(merged, 0u);
}

TEST(AssemblerParity, PaperCircuitsMatchExpandThenIntern)
{
    auto nl = verilog::synthesizeSource(
        "module m (s, a, b, c); input s; input [3:0] a, b; "
        "output [4:0] c; assign c = s ? a+b : a-b; endmodule",
        "m");
    netlist::optimize(nl);
    Program prog = netlistToQmasm(nl);
    for (bool merge : {true, false}) {
        AssembleOptions opts;
        opts.merge_chains = merge;
        expectSameAssembly(assemble(prog, opts),
                           reference::assemble(prog, opts));
    }
}

TEST(LineCount, EqualsPrintedLines)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        std::mt19937_64 rng(seed);
        Program p = randomProgram(rng);
        EXPECT_EQ(p.lineCount(), countLines(p.toString())) << seed;
        Program main_only;
        main_only.statements = p.statements;
        EXPECT_EQ(countStatementLines(p.statements),
                  countLines(main_only.toString()))
            << seed;
    }
    // Line breaks inside a statement's text print as extra lines.
    Program p = parseProgram("!begin_macro M\nA 1\n!end_macro M\n"
                             "!use_macro M g\nassert g.A = 1\n");
    Statement note;
    note.kind = Statement::Kind::Comment;
    note.text = "two\nlines";
    p.statements.push_back(note);
    p.macros[0].body.push_back(note);
    p.macros[0].name = "M\n";
    EXPECT_EQ(p.lineCount(), countLines(p.toString()));
    EXPECT_EQ(p.lineCount(), 11u);
    EXPECT_EQ(Program().lineCount(), 0u);
    EXPECT_EQ(stdcellLibrary().lineCount(),
              countLines(stdcellLibrary().toString()));
}

// -------------------------------------------------------------- stdcells

TEST(StdcellLib, ContainsAllCells)
{
    const Program &lib = stdcellLibrary();
    for (const char *name :
         {"NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX",
          "AOI3", "OAI3", "AOI4", "OAI4", "DFF_P", "DFF_N"})
        EXPECT_NE(lib.findMacro(name), nullptr) << name;
}

TEST(StdcellLib, TextParsesBack)
{
    Program p = parseProgram(stdcellText());
    EXPECT_EQ(p.macros.size(), stdcellLibrary().macros.size());
}

TEST(StdcellLib, ResolverServesIt)
{
    auto r = stdcellResolver();
    EXPECT_TRUE(r("stdcell.qmasm").has_value());
    EXPECT_FALSE(r("other.qmasm").has_value());
}

/** Ground states of an assembled macro == the gate's truth table. */
TEST(StdcellLib, AssembledMacroGroundStates)
{
    Program prog;
    prog.macros = stdcellLibrary().macros;
    Statement use;
    use.kind = Statement::Kind::UseMacro;
    use.sym1 = "AND";
    use.sym2 = "g";
    prog.statements.push_back(use);
    Assembled a = assemble(prog);
    anneal::ExactSolver solver;
    auto res = solver.solve(a.model);
    ASSERT_EQ(res.ground_states.size(), 4u); // 4 valid AND rows
    for (const auto &gs : res.ground_states)
        EXPECT_TRUE(a.checkAsserts(gs));
}

// ------------------------------------------------------------ edif2qmasm

/**
 * The central Section 4.3 property: compile a circuit, translate it to
 * QMASM, assemble, and check that the exact ground states are exactly
 * the circuit's I/O relations (verified against the netlist simulator).
 */
void
checkGroundStatesAreCircuitRelation(const char *src, const char *top)
{
    auto nl = verilog::synthesizeSource(src, top);
    netlist::optimize(nl);
    Program prog = netlistToQmasm(nl);
    Assembled a = assemble(prog);
    ASSERT_LE(a.model.numVars(), 24u) << "test circuit too large";

    anneal::ExactSolver solver;
    auto res = solver.solve(a.model);
    ASSERT_FALSE(res.ground_states.empty());

    // Every ground state satisfies all per-gate asserts and matches a
    // forward simulation of its input values.
    netlist::Simulator sim(nl);
    std::set<uint64_t> seen_inputs;
    for (const auto &gs : res.ground_states) {
        EXPECT_TRUE(a.checkAsserts(gs));
        uint64_t key = 0;
        size_t shift = 0;
        for (const auto &p : nl.ports()) {
            if (p.dir != netlist::PortDir::Input)
                continue;
            uint64_t v = 0;
            for (size_t i = 0; i < p.bits.size(); ++i)
                if (a.symbolValue(gs, portBitSymbol(p, i)))
                    v |= uint64_t{1} << i;
            sim.setInput(p.name, v);
            key |= v << shift;
            shift += p.width();
        }
        seen_inputs.insert(key);
        sim.eval();
        for (const auto &p : nl.ports()) {
            if (p.dir != netlist::PortDir::Output)
                continue;
            for (size_t i = 0; i < p.bits.size(); ++i)
                EXPECT_EQ(a.symbolValue(gs, portBitSymbol(p, i)),
                          sim.netValue(p.bits[i]))
                    << p.name << "[" << i << "]";
        }
    }
    // And every input combination appears among the ground states
    // (the relation is total).
    size_t in_bits = 0;
    for (const auto &p : nl.ports())
        if (p.dir == netlist::PortDir::Input)
            in_bits += p.width();
    EXPECT_EQ(seen_inputs.size(), size_t{1} << in_bits);
}

TEST(Edif2Qmasm, XorRelation)
{
    checkGroundStatesAreCircuitRelation(
        "module m (a, b, y); input a, b; output y; "
        "assign y = a ^ b; endmodule",
        "m");
}

TEST(Edif2Qmasm, MuxAddSubRelation)
{
    // Figure 2's example: H minimized exactly on valid relations.
    checkGroundStatesAreCircuitRelation(
        "module m (s, a, b, c); input s, a, b; output [1:0] c; "
        "assign c = s ? a+b : a-b; endmodule",
        "m");
}

TEST(Edif2Qmasm, TinyMultiplierRelation)
{
    checkGroundStatesAreCircuitRelation(
        "module m (x, y, p); input [1:0] x, y; output [3:0] p; "
        "assign p = x * y; endmodule",
        "m");
}

TEST(Edif2Qmasm, ConstantsBecomePins)
{
    auto nl = verilog::synthesizeSource(
        "module m (a, y); input a; output [1:0] y; "
        "assign y = {1'b1, a}; endmodule",
        "m");
    netlist::optimize(nl);
    Program prog = netlistToQmasm(nl);
    bool has_pin = false;
    for (const auto &st : prog.statements)
        if (st.kind == Statement::Kind::Pin && st.pin_value)
            has_pin = true;
    EXPECT_TRUE(has_pin);
}

TEST(Edif2Qmasm, EdifTextPath)
{
    // Through real EDIF text, as the paper's tool consumes it.
    auto nl = verilog::synthesizeSource(
        "module m (a, b, y); input a, b; output y; "
        "assign y = a & b; endmodule",
        "m");
    netlist::optimize(nl);
    Program prog = edifToQmasm(qac::edif::writeEdif(nl));
    Assembled a = assemble(prog);
    anneal::ExactSolver solver;
    auto res = solver.solve(a.model);
    EXPECT_EQ(res.ground_states.size(), 4u);
}

} // namespace
} // namespace qac::qmasm
