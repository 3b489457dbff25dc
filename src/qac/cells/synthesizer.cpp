#include "qac/cells/synthesizer.h"

#include <cmath>

#include "qac/util/logging.h"
#include "qac/util/rng.h"
#include "qac/util/simplex.h"

namespace qac::cells {

namespace {

/** Required valid/invalid energy gap for a pattern to count. */
constexpr double kMinGap = 1e-6;
/** Random pattern budget when exhaustive search is too large. */
constexpr size_t kMaxRandomPatterns = 512;
/** Seed of that random pattern search. */
constexpr uint64_t kPatternSeed = 1;

/**
 * LP variable layout for a cell over n spins:
 *   columns [0, n)            shifted linear coefficients h'_i
 *   columns [n, n+P)          shifted quadratic coefficients J'_p
 *   column  n+P               shifted ground energy k'
 *   column  n+P+1             gap g
 * with h_i = h'_i + h_min, J = J' + j_min, k = k' - K.
 */
struct Layout
{
    size_t n;       ///< number of spins
    size_t pairs;   ///< n*(n-1)/2
    size_t cols;    ///< total LP columns
    double big_k;   ///< energy magnitude bound K

    explicit Layout(size_t num_spins, const ising::CoefficientRange &r)
        : n(num_spins), pairs(num_spins * (num_spins - 1) / 2),
          cols(num_spins + pairs + 2)
    {
        double hm = std::max(std::abs(r.h_min), std::abs(r.h_max));
        double jm = std::max(std::abs(r.j_min), std::abs(r.j_max));
        big_k = static_cast<double>(n) * hm +
            static_cast<double>(pairs) * jm + 1.0;
    }

    size_t kCol() const { return n + pairs; }
    size_t gCol() const { return n + pairs + 1; }

    size_t
    pairCol(size_t i, size_t j) const
    {
        if (i > j)
            std::swap(i, j);
        // Index of (i, j), i < j, in lexicographic pair order.
        size_t idx = i * n - i * (i + 1) / 2 + (j - i - 1);
        return n + idx;
    }
};

/** Spin assignment for full-row index: bit b -> spin b. */
ising::SpinVector
rowSpins(uint32_t row, size_t n)
{
    return ising::indexToSpins(row, n);
}

} // namespace

TruthTable
TruthTable::forGate(GateType type)
{
    const GateInfo &info = gateInfo(type);
    if (info.sequential)
        fatal("no combinational truth table for %s", info.name);
    TruthTable tt;
    tt.numInputs = info.inputs.size();
    tt.output.resize(size_t{1} << tt.numInputs);
    for (uint32_t in = 0; in < tt.output.size(); ++in)
        tt.output[in] = evalGate(type, in);
    return tt;
}

std::optional<SynthesizedCell>
synthesizeWithPattern(const TruthTable &tt, size_t num_ancillas,
                      const std::vector<uint32_t> &pattern,
                      const SynthesisOptions &opts)
{
    const size_t num_in = tt.numInputs;
    const size_t num_rows = size_t{1} << num_in;
    if (pattern.size() != num_rows)
        panic("pattern has %zu entries for %zu input rows",
              pattern.size(), num_rows);
    const size_t n = 1 + num_in + num_ancillas; // Y, inputs, ancillas
    const Layout lay(n, opts.range);

    const double h_span = opts.range.h_max - opts.range.h_min;
    const double j_span = opts.range.j_max - opts.range.j_min;

    std::vector<LpConstraint> cons;
    // One row per full spin assignment.  Spin order within the
    // assignment: [Y, inputs, ancillas] -> assignment bits 0..n-1.
    for (uint32_t full = 0; full < (1u << n); ++full) {
        auto spins = rowSpins(full, n);
        const bool y = ising::spinToBool(spins[0]);
        uint32_t in_bits = 0;
        for (size_t k = 0; k < num_in; ++k)
            if (ising::spinToBool(spins[1 + k]))
                in_bits |= (1u << k);
        uint32_t anc_bits = 0;
        for (size_t a = 0; a < num_ancillas; ++a)
            if (ising::spinToBool(spins[1 + num_in + a]))
                anc_bits |= (1u << a);

        const bool valid_io = (tt.output[in_bits] == y);
        const bool designated =
            valid_io && (num_ancillas == 0 || anc_bits == pattern[in_bits]);

        // E(full) in terms of shifted LP variables:
        //   sum h'_i s_i + sum J'_ij s_i s_j + const(full)
        LpConstraint con;
        con.coeffs.assign(lay.cols, 0.0);
        double c0 = 0.0;
        for (size_t i = 0; i < n; ++i) {
            con.coeffs[i] = spins[i];
            c0 += opts.range.h_min * spins[i];
        }
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) {
                double ss = spins[i] * spins[j];
                con.coeffs[lay.pairCol(i, j)] = ss;
                c0 += opts.range.j_min * ss;
            }
        }
        // E = lhs + c0; k = k' - K.
        if (designated) {
            // E = k  ->  lhs - k' = -K - c0
            con.coeffs[lay.kCol()] = -1.0;
            con.rel = Relation::EQ;
            con.rhs = -lay.big_k - c0;
        } else if (valid_io) {
            // E >= k  (non-designated ancilla values must not undercut)
            con.coeffs[lay.kCol()] = -1.0;
            con.rel = Relation::GE;
            con.rhs = -lay.big_k - c0;
        } else {
            // E >= k + g
            con.coeffs[lay.kCol()] = -1.0;
            con.coeffs[lay.gCol()] = -1.0;
            con.rel = Relation::GE;
            con.rhs = -lay.big_k - c0;
        }
        cons.push_back(std::move(con));
    }

    // Box constraints (upper bounds; lower bounds are x >= 0).
    auto addUpper = [&](size_t col, double ub) {
        LpConstraint con;
        con.coeffs.assign(lay.cols, 0.0);
        con.coeffs[col] = 1.0;
        con.rel = Relation::LE;
        con.rhs = ub;
        cons.push_back(std::move(con));
    };
    for (size_t i = 0; i < n; ++i)
        addUpper(i, h_span);
    for (size_t p = 0; p < lay.pairs; ++p)
        addUpper(lay.n + p, j_span);
    addUpper(lay.kCol(), 2.0 * lay.big_k);
    addUpper(lay.gCol(), 2.0 * lay.big_k);

    // Maximize the gap.
    std::vector<double> obj(lay.cols, 0.0);
    obj[lay.gCol()] = 1.0;

    LpResult lp = solveLp(lay.cols, obj, cons);
    if (lp.status != LpStatus::Optimal || lp.objective < kMinGap)
        return std::nullopt;

    SynthesizedCell cell;
    cell.numAncillas = num_ancillas;
    cell.ancillaPattern = pattern;
    cell.H.resize(n);
    for (size_t i = 0; i < n; ++i) {
        double h = lp.x[i] + opts.range.h_min;
        if (std::abs(h) > 1e-9)
            cell.H.addLinear(static_cast<uint32_t>(i), h);
    }
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            double jj = lp.x[lay.pairCol(i, j)] + opts.range.j_min;
            if (std::abs(jj) > 1e-9)
                cell.H.addQuadratic(static_cast<uint32_t>(i),
                                    static_cast<uint32_t>(j), jj);
        }
    }
    cell.groundEnergy = lp.x[lay.kCol()] - lay.big_k;
    cell.gap = lp.objective;
    return cell;
}

std::optional<SynthesizedCell>
synthesizeCell(const TruthTable &tt, const SynthesisOptions &opts)
{
    const size_t num_rows = size_t{1} << tt.numInputs;
    std::optional<SynthesizedCell> best;

    for (size_t anc = 0; anc <= opts.maxAncillas; ++anc) {
        const double pattern_bits =
            static_cast<double>(num_rows) * static_cast<double>(anc);
        const bool exhaustive = pattern_bits <= 10.0; // <= 1024 patterns

        auto consider = [&](const std::vector<uint32_t> &pattern) {
            auto got = synthesizeWithPattern(tt, anc, pattern, opts);
            if (got && (!best || got->gap > best->gap))
                best = std::move(got);
        };

        if (exhaustive) {
            uint64_t total = uint64_t{1} << static_cast<uint64_t>(
                pattern_bits);
            for (uint64_t pat = 0; pat < total; ++pat) {
                std::vector<uint32_t> pattern(num_rows);
                for (size_t r = 0; r < num_rows; ++r)
                    pattern[r] = static_cast<uint32_t>(
                        (pat >> (r * anc)) & ((1u << anc) - 1));
                consider(pattern);
            }
        } else {
            Rng rng(kPatternSeed);
            for (size_t t = 0; t < kMaxRandomPatterns; ++t) {
                std::vector<uint32_t> pattern(num_rows);
                for (size_t r = 0; r < num_rows; ++r)
                    pattern[r] = static_cast<uint32_t>(
                        rng.below(uint64_t{1} << anc));
                consider(pattern);
            }
        }
        // Prefer the fewest ancillas that work at all (qubit economy),
        // matching the paper's presentation.
        if (best)
            return best;
    }
    return best;
}

size_t
countSolvablePatterns(const TruthTable &tt, size_t num_ancillas,
                      const SynthesisOptions &opts)
{
    const size_t num_rows = size_t{1} << tt.numInputs;
    const double pattern_bits =
        static_cast<double>(num_rows) * static_cast<double>(num_ancillas);
    if (pattern_bits > 20.0)
        fatal("pattern space too large to enumerate (%g bits)",
              pattern_bits);
    uint64_t total = uint64_t{1} << static_cast<uint64_t>(pattern_bits);
    size_t solvable = 0;
    for (uint64_t pat = 0; pat < total; ++pat) {
        std::vector<uint32_t> pattern(num_rows);
        for (size_t r = 0; r < num_rows; ++r)
            pattern[r] = static_cast<uint32_t>(
                (pat >> (r * num_ancillas)) &
                ((uint64_t{1} << num_ancillas) - 1));
        if (synthesizeWithPattern(tt, num_ancillas, pattern, opts))
            ++solvable;
    }
    return solvable;
}

CellHamiltonian
toCellHamiltonian(GateType type, const SynthesizedCell &cell)
{
    const GateInfo &info = gateInfo(type);
    CellHamiltonian out;
    out.type = type;
    out.varNames.push_back(info.output);
    for (const auto &in : info.inputs)
        out.varNames.push_back(in);
    for (size_t a = 0; a < cell.numAncillas; ++a)
        out.varNames.push_back(format("$anc%zu", a));
    out.H = cell.H;
    std::string err;
    if (!verifyCell(out, &err))
        panic("synthesized cell for %s failed verification: %s",
              info.name, err.c_str());
    return out;
}

} // namespace qac::cells
