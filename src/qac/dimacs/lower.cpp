#include "qac/dimacs/lower.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qac/util/logging.h"

namespace qac::dimacs {

namespace {

/** A literal over a lowered symbol: sign -1/+1 times the symbol spin. */
struct Lit
{
    std::string sym;
    int sign = 1; // +1 positive literal, -1 negated
};

std::string
litRepr(const Lit &l)
{
    return (l.sign < 0 ? "~" : "") + l.sym;
}

/** Aggregates Ising coefficients before emission. */
struct Builder
{
    std::map<std::string, double> h;
    std::map<std::pair<std::string, std::string>, double> j;
    double offset = 0.0;
    // Canonical (litA,litB) -> ancilla symbol for d = litA | litB.
    std::map<std::string, std::string> or_memo;
    uint32_t num_ancillas = 0;
    uint32_t shared_hits = 0;
    bool share = true;

    void
    linear(const Lit &l, double c)
    {
        h[l.sym] += c * l.sign;
    }

    void
    quad(const Lit &a, const Lit &b, double c)
    {
        auto key = std::minmax(a.sym, b.sym);
        j[{key.first, key.second}] += c * a.sign * b.sign;
    }

    /** 1-literal clause: w * (1 - t). */
    void
    unitClause(const Lit &l, double w)
    {
        offset += w / 2;
        linear(l, -w / 2);
    }

    /** 2-literal clause: w * (1 - t1)(1 - t2). */
    void
    pairClause(const Lit &l1, const Lit &l2, double w)
    {
        offset += w / 4;
        linear(l1, -w / 4);
        linear(l2, -w / 4);
        quad(l1, l2, w / 4);
    }

    /**
     * OR gadget d = l1 | l2 at strength w: penalty 0 iff consistent,
     * >= w otherwise (QUBO a+b+d+ab-2ad-2bd mapped to spins).
     */
    void
    orGadget(const Lit &l1, const Lit &l2, const Lit &d, double w)
    {
        offset += 3 * w / 4;
        linear(l1, w / 4);
        linear(l2, w / 4);
        linear(d, -w / 2);
        quad(l1, l2, w / 4);
        quad(l1, d, -w / 2);
        quad(l2, d, -w / 2);
    }

    /** Ancilla holding l1 | l2, memoized when sharing is on. */
    Lit
    orAncilla(const Lit &l1, const Lit &l2)
    {
        std::string a = litRepr(l1), b = litRepr(l2);
        if (a > b)
            std::swap(a, b);
        const std::string key = a + "|" + b;
        if (share) {
            auto it = or_memo.find(key);
            if (it != or_memo.end()) {
                ++shared_hits;
                return {it->second, 1};
            }
        }
        std::string sym = "$d" + std::to_string(++num_ancillas);
        if (share)
            or_memo.emplace(key, sym);
        return {sym, 1};
    }

    /**
     * One clause at penalty weight w: Tseitin chain for width > 2.
     * Every OR gadget in the chain is emitted at strength w; the
     * final literal pair closes with the 2-literal gadget, so an
     * unsatisfied clause costs exactly w at the optimal ancilla
     * setting.
     */
    void
    addClause(const std::vector<Lit> &lits, double w)
    {
        if (lits.size() == 1) {
            unitClause(lits[0], w);
            return;
        }
        if (lits.size() == 2) {
            pairClause(lits[0], lits[1], w);
            return;
        }
        Lit acc = orAncilla(lits[0], lits[1]);
        orGadget(lits[0], lits[1], acc, w);
        for (size_t i = 2; i + 1 < lits.size(); ++i) {
            Lit next = orAncilla(acc, lits[i]);
            orGadget(acc, lits[i], next, w);
            acc = next;
        }
        pairClause(acc, lits.back(), w);
    }
};

} // namespace

Lowered
lower(const Instance &inst, const FrontendOptions &opts)
{
    Builder b;
    b.share = opts.share_ancillas;

    double soft_total = 0.0;
    for (const auto &cl : inst.clauses)
        if (!cl.hard)
            soft_total += static_cast<double>(cl.weight);
    const double hard_w = soft_total + 1.0;

    // Give every declared variable a symbol (even ones in no clause)
    // so decode and pinning work uniformly.
    for (uint32_t v = 1; v <= inst.num_vars; ++v)
        b.h[varSymbol(v)] += 0.0;

    for (const auto &cl : inst.clauses) {
        std::vector<Lit> lits;
        lits.reserve(cl.lits.size());
        for (int32_t lit : cl.lits) {
            uint32_t var = static_cast<uint32_t>(lit < 0 ? -lit : lit);
            lits.push_back({varSymbol(var), lit < 0 ? -1 : 1});
        }
        // Canonical order maximizes chain-prefix sharing across
        // clauses; duplicate literals collapse (l|l = l).
        std::sort(lits.begin(), lits.end(),
                  [](const Lit &a, const Lit &b) {
                      return std::tie(a.sym, a.sign) <
                             std::tie(b.sym, b.sign);
                  });
        lits.erase(std::unique(lits.begin(), lits.end(),
                               [](const Lit &a, const Lit &b) {
                                   return a.sym == b.sym &&
                                          a.sign == b.sign;
                               }),
                   lits.end());
        const double w =
            cl.hard ? hard_w : static_cast<double>(cl.weight);
        b.addClause(lits, w);
    }

    Lowered out;
    for (const auto &[sym, value] : b.h) {
        qmasm::Statement st;
        st.kind = qmasm::Statement::Kind::Weight;
        st.sym1 = sym;
        st.value = value;
        out.program.statements.push_back(std::move(st));
    }
    for (const auto &[pair, value] : b.j) {
        if (value == 0.0)
            continue;
        qmasm::Statement st;
        st.kind = qmasm::Statement::Kind::Coupling;
        st.sym1 = pair.first;
        st.sym2 = pair.second;
        st.value = value;
        out.program.statements.push_back(std::move(st));
    }

    out.decode.num_vars = inst.num_vars;
    out.decode.weighted = inst.weighted;
    out.decode.top_weight = inst.top_weight;
    out.decode.hard_weight = hard_w;
    out.decode.energy_offset = b.offset;
    out.decode.num_ancillas = b.num_ancillas;
    out.decode.shared_ancillas = b.shared_hits;
    out.decode.clauses = inst.clauses;
    return out;
}

} // namespace qac::dimacs
