#include "qac/qmasm/assemble.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>

#include "qac/qmasm/expand.h"
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
    std::vector<Statement> stmts = expand(prog);

    // Symbol interning in first-appearance order (deterministic ids).
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

    // Merge aliases always; merge chains when requested.
    UnionFind uf;
    uf.parent.resize(names.size());
    for (uint32_t i = 0; i < uf.parent.size(); ++i)
        uf.parent[i] = i;
    for (const auto &st : stmts) {
        if (st.kind == Statement::Kind::Alias ||
            (st.kind == Statement::Kind::Chain && opts.merge_chains))
            uf.unite(sym_id(st.sym1), sym_id(st.sym2));
    }

    // Assign variable indices to roots, in first-appearance order.
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
        // Prefer a user-visible name for reporting.
        if (isInternalSymbol(out.var_names[v]) &&
            !isInternalSymbol(names[i]))
            out.var_names[v] = names[i];
    }
    out.model.resize(out.var_names.size());

    // Default chain strength: twice the largest-in-magnitude literal J.
    double max_j = 0.0;
    double max_h = 0.0;
    for (const auto &st : stmts) {
        if (st.kind == Statement::Kind::Coupling)
            max_j = std::max(max_j, std::abs(st.value));
        if (st.kind == Statement::Kind::Weight)
            max_h = std::max(max_h, std::abs(st.value));
    }
    double chain_str = opts.chain_strength;
    if (chain_str <= 0.0)
        chain_str = max_j > 0 ? 2.0 * max_j
                              : (max_h > 0 ? 2.0 * max_h : 2.0);
    double pin_str = opts.pin_strength;
    if (pin_str <= 0.0)
        pin_str = chain_str;
    out.chain_strength_used = chain_str;
    out.pin_strength_used = pin_str;

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
            if (a == b) {
                // sigma^2 == 1: the coupling collapses to a constant.
                out.energy_offset += st.value;
            } else {
                out.model.addQuadratic(a, b, st.value);
            }
            break;
          }
          case Statement::Kind::Chain: {
            if (opts.merge_chains)
                break; // already merged
            uint32_t a = var_of(st.sym1);
            uint32_t b = var_of(st.sym2);
            if (a != b)
                out.model.addQuadratic(a, b, -chain_str);
            break;
          }
          case Statement::Kind::Alias:
            break; // always merged
          case Statement::Kind::Pin: {
            // Bias toward the pinned value: H_VCC = -sigma (true),
            // H_GND = +sigma (false), scaled up to dominate.
            out.model.addLinear(var_of(st.sym1),
                                st.pin_value ? -pin_str : pin_str);
            out.pins.emplace_back(st.sym1, st.pin_value);
            break;
          }
          case Statement::Kind::Assert:
            out.asserts.push_back(st.text);
            break;
          case Statement::Kind::UseMacro:
          case Statement::Kind::Comment:
            break;
        }
    }
    stats::gauge("qmasm.assemble.vars", out.model.numVars());
    stats::gauge("qmasm.assemble.terms", out.model.numTerms());
    return out;
}

} // namespace qac::qmasm
