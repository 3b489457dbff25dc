#include "qac/qmasm/assemble.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <optional>
#include <string_view>

#include "qac/stats/registry.h"
#include "qac/util/logging.h"

namespace qac::qmasm {

namespace {

/** Union-find over symbol indices. */
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

/** Prefix every symbol token inside an assert expression. */
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
            std::string_view sym(text.data() + start, i - start);
            if (sym != "true" && sym != "false")
                out += prefix;
            out += sym;
        } else {
            out += c;
            ++i;
        }
    }
    return out;
}

/** One primitive statement with its symbols interned. */
struct Op
{
    Statement::Kind kind;
    bool pin_value;
    uint32_t a, b; ///< symbol ids (b unused for weights and pins)
    double value;
};

/**
 * The lowering walk: expands every !use_macro in place, the way
 * "!use_macro AND3 my_and" makes my_and.A of the body's A (Section
 * 4.3.5), and interns each instance-prefixed symbol once, in
 * first-appearance order.  Asserts go straight to @p asserts with
 * their symbols prefixed; comments are dropped.
 */
struct Lowering
{
    const Program &prog;
    std::vector<std::string> &asserts;
    /** Symbol -> id.  Node-based, so names[] may point at its keys. */
    std::unordered_map<std::string, uint32_t> intern = {};
    std::vector<const std::string *> names = {}; ///< id -> symbol
    std::vector<Op> ops = {};
    std::string prefix = {}; ///< "inst.sub." of the body being walked
    std::string key = {};    ///< prefix + symbol, reused

    uint32_t
    id(const std::string &sym)
    {
        const bool bare = prefix.empty() || sym.empty();
        if (!bare)
            key.assign(prefix).append(sym);
        auto [it, inserted] = intern.try_emplace(
            bare ? sym : key, static_cast<uint32_t>(names.size()));
        if (inserted)
            names.push_back(&it->first);
        return it->second;
    }

    void
    walk(const std::vector<Statement> &stmts, int depth)
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
                stats::count("qmasm.expand.macros_expanded");
                const size_t len = prefix.size();
                prefix.append(st.sym2).push_back('.');
                walk(m->body, depth + 1);
                prefix.resize(len);
                break;
              }
              case Statement::Kind::Comment:
                break;
              case Statement::Kind::Assert:
                asserts.push_back(prefixAssertText(st.text, prefix));
                break;
              case Statement::Kind::Weight:
              case Statement::Kind::Pin:
                ops.push_back({st.kind, st.pin_value, id(st.sym1), 0,
                               st.value});
                break;
              default: { // coupling, chain, alias
                uint32_t a = id(st.sym1);
                ops.push_back({st.kind, st.pin_value, a, id(st.sym2),
                               st.value});
                break;
              }
            }
        }
    }
};

/**
 * Recursive-descent evaluator for assert expressions.  @p lookup maps
 * an operand name to its value, or to nullopt when it is unknown.
 */
template <class Lookup>
class AssertEval
{
  public:
    AssertEval(const std::string &src, const Lookup &lookup)
        : src_(src), lookup_(lookup)
    {}

    bool
    run()
    {
        bool v = parseEquality();
        skipSpace();
        if (pos_ != src_.size())
            fatal("assert expression: trailing junk in '%s'",
                  src_.c_str());
        return v;
    }

  private:
    const std::string &src_;
    const Lookup &lookup_;
    size_t pos_ = 0;

    void
    skipSpace()
    {
        while (pos_ < src_.size() &&
               std::isspace(static_cast<unsigned char>(src_[pos_])))
            ++pos_;
    }

    bool
    accept(const char *tok)
    {
        skipSpace();
        size_t len = std::char_traits<char>::length(tok);
        if (src_.compare(pos_, len, tok) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    bool
    parseEquality()
    {
        bool v = parseOr();
        while (true) {
            if (accept("!=")) {
                v = (v != parseOr());
            } else if (accept("==") || accept("=")) {
                v = (v == parseOr());
            } else {
                return v;
            }
        }
    }

    bool
    parseOr()
    {
        bool v = parseXor();
        while (true) {
            skipSpace();
            // Don't consume '|' if part of '||' (same meaning here).
            if (accept("||") || accept("|"))
                v = parseXor() || v;
            else
                return v;
        }
    }

    bool
    parseXor()
    {
        bool v = parseAnd();
        while (accept("^"))
            v = (v != parseAnd());
        return v;
    }

    bool
    parseAnd()
    {
        bool v = parseUnary();
        while (accept("&&") || accept("&")) {
            bool rhs = parseUnary();
            v = v && rhs;
        }
        return v;
    }

    bool
    parseUnary()
    {
        if (accept("~") || accept("!"))
            return !parseUnary();
        if (accept("(")) {
            bool v = parseEquality();
            if (!accept(")"))
                fatal("assert expression: missing ')' in '%s'",
                      src_.c_str());
            return v;
        }
        skipSpace();
        size_t start = pos_;
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                c == '$' || c == '.' || c == '[' || c == ']')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            fatal("assert expression: expected operand in '%s'",
                  src_.c_str());
        std::string sym = src_.substr(start, pos_ - start);
        if (sym == "true" || sym == "1")
            return true;
        if (sym == "false" || sym == "0")
            return false;
        std::optional<bool> v = lookup_(sym);
        if (!v)
            fatal("assert expression: unknown symbol '%s'", sym.c_str());
        return *v;
    }
};

} // namespace

bool
evalAssertExpr(const std::string &expr,
               const std::map<std::string, bool> &values)
{
    auto lookup = [&](const std::string &sym) -> std::optional<bool> {
        auto it = values.find(sym);
        if (it == values.end())
            return std::nullopt;
        return it->second;
    };
    return AssertEval(expr, lookup).run();
}

uint32_t
Assembled::var(const std::string &sym) const
{
    auto it = sym_to_var.find(sym);
    if (it == sym_to_var.end())
        fatal("qmasm: unknown symbol '%s'", sym.c_str());
    return it->second;
}

bool
Assembled::hasSymbol(const std::string &sym) const
{
    return sym_to_var.count(sym) > 0;
}

bool
Assembled::symbolValue(const ising::SpinVector &spins,
                       const std::string &sym) const
{
    return ising::spinToBool(spins[var(sym)]);
}

std::map<std::string, bool>
Assembled::visibleValues(const ising::SpinVector &spins) const
{
    std::map<std::string, bool> out;
    for (const auto &[sym, idx] : sym_to_var)
        if (!isInternalSymbol(sym))
            out[sym] = ising::spinToBool(spins[idx]);
    return out;
}

bool
Assembled::checkAsserts(const ising::SpinVector &spins,
                        std::string *failed) const
{
    auto lookup = [&](const std::string &sym) -> std::optional<bool> {
        auto it = sym_to_var.find(sym);
        if (it == sym_to_var.end())
            return std::nullopt;
        return ising::spinToBool(spins[it->second]);
    };
    for (const auto &expr : asserts) {
        if (!AssertEval(expr, lookup).run()) {
            if (failed)
                *failed = expr;
            return false;
        }
    }
    return true;
}

Assembled
assemble(const Program &prog, const AssembleOptions &opts)
{
    stats::ScopedTimer timer("qmasm.assemble.time");
    Assembled out;
    Lowering low{prog, out.asserts};
    {
        stats::ScopedTimer t("qmasm.expand.time");
        low.walk(prog.statements, 0);
        stats::gauge("qmasm.expand.statements_out",
                     low.ops.size() + out.asserts.size());
    }
    const auto n = static_cast<uint32_t>(low.names.size());

    // Merge aliases always; merge chains when requested.  Chain
    // strength: twice the largest-in-magnitude literal J (or h, for a
    // model without couplings); pins bias just as strongly.
    UnionFind uf;
    uf.parent.resize(n);
    std::iota(uf.parent.begin(), uf.parent.end(), 0u);
    double max_j = 0.0;
    double max_h = 0.0;
    for (const Op &op : low.ops) {
        if (op.kind == Statement::Kind::Alias ||
            (op.kind == Statement::Kind::Chain && opts.merge_chains))
            uf.unite(op.a, op.b);
        if (op.kind == Statement::Kind::Coupling)
            max_j = std::max(max_j, std::abs(op.value));
        if (op.kind == Statement::Kind::Weight)
            max_h = std::max(max_h, std::abs(op.value));
    }
    const double chain_str = max_j > 0 ? 2.0 * max_j
                                       : (max_h > 0 ? 2.0 * max_h : 2.0);
    out.chain_strength_used = chain_str;
    out.pin_strength_used = chain_str;

    // Assign variable indices to roots, in first-appearance order.  A
    // root is the smallest id of its set, so it is numbered before any
    // other member.
    std::vector<uint32_t> var_of(n);
    for (uint32_t i = 0; i < n; ++i) {
        const std::string &name = *low.names[i];
        uint32_t r = uf.find(i);
        if (r == i) {
            var_of[i] = static_cast<uint32_t>(out.var_names.size());
            out.var_names.push_back(name);
            continue;
        }
        uint32_t v = var_of[i] = var_of[r];
        // Prefer a user-visible name for reporting.
        if (isInternalSymbol(out.var_names[v]) && !isInternalSymbol(name))
            out.var_names[v] = name;
    }
    out.model.resize(out.var_names.size());

    for (const Op &op : low.ops) {
        const uint32_t a = var_of[op.a];
        switch (op.kind) {
          case Statement::Kind::Weight:
            out.model.addLinear(a, op.value);
            break;
          case Statement::Kind::Coupling:
            if (a == var_of[op.b]) {
                // sigma^2 == 1: the coupling collapses to a constant.
                out.energy_offset += op.value;
            } else {
                out.model.addQuadratic(a, var_of[op.b], op.value);
            }
            break;
          case Statement::Kind::Chain:
            // Merged chains are already one variable.
            if (!opts.merge_chains && a != var_of[op.b])
                out.model.addQuadratic(a, var_of[op.b], -chain_str);
            break;
          case Statement::Kind::Pin:
            // Bias toward the pinned value: H_VCC = -sigma (true),
            // H_GND = +sigma (false), scaled up to dominate.
            out.model.addLinear(a, op.pin_value ? -chain_str : chain_str);
            out.pins.emplace_back(*low.names[op.a], op.pin_value);
            break;
          default:
            break; // aliases are always merged
        }
    }

    // The intern table becomes the symbol table: same keys, each id
    // replaced by its variable.
    for (auto &[sym, id] : low.intern)
        id = var_of[id];
    out.sym_to_var = std::move(low.intern);
    stats::gauge("qmasm.assemble.vars", out.model.numVars());
    stats::gauge("qmasm.assemble.terms", out.model.numTerms());
    return out;
}

} // namespace qac::qmasm
