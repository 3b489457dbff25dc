/**
 * @file
 * Truth-table -> penalty-Hamiltonian synthesis (paper, Section 4.3.2).
 *
 * "Our approach is to set up and solve a system of inequalities (using,
 * e.g., MiniZinc)" — Tables 2 and 4.  Each full truth-table row yields
 * one constraint on the h and J coefficients: valid rows are pinned to
 * the (unknown) ground energy k, invalid rows must exceed it.  When the
 * system is unsolvable (XOR, XNOR: the only unsolvable 2-input/1-output
 * functions [Whitfield et al.]), ancilla columns are appended to the
 * truth table and their values searched over until a solvable system is
 * found (Table 3).
 *
 * We solve the system with an in-repo simplex LP (util/simplex.h),
 * maximizing the valid/invalid energy gap subject to the hardware
 * coefficient ranges — the same objective the paper describes for
 * choosing Table 5's entries ("honor the hardware-imposed coefficient
 * ranges while maximizing the gap").
 */

#ifndef QAC_CELLS_SYNTHESIZER_H
#define QAC_CELLS_SYNTHESIZER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "qac/cells/gate.h"
#include "qac/cells/stdcell.h"
#include "qac/ising/model.h"

namespace qac::cells {

/** A single-output Boolean function as an explicit truth table. */
struct TruthTable
{
    size_t numInputs = 0;
    /** output[i] = f(inputs) where bit k of i is input k. */
    std::vector<bool> output;

    /** Truth table of a library gate (combinational only). */
    static TruthTable forGate(GateType type);
};

/** Knobs for synthesizeCell(). */
struct SynthesisOptions
{
    size_t maxAncillas = 2;
    /** Coefficient box the LP must respect (hardware ranges). */
    ising::CoefficientRange range{};
};

/** Result of a successful synthesis. */
struct SynthesizedCell
{
    /** Spin order: [Y, input 0..n-1, ancilla 0..a-1]. */
    ising::IsingModel H;
    size_t numAncillas = 0;
    double groundEnergy = 0.0;
    double gap = 0.0;
    /** ancillaPattern[v] = ancilla bits designated for valid row v
     *  (valid rows enumerated in input order). */
    std::vector<uint32_t> ancillaPattern;
};

/**
 * Solve the inequality system for one specific ancilla augmentation.
 * @p pattern has one entry per input combination (the designated ancilla
 * bits on that valid row).  Returns nullopt when infeasible — e.g. XOR
 * with num_ancillas == 0 (Table 4's premise).
 */
std::optional<SynthesizedCell>
synthesizeWithPattern(const TruthTable &tt, size_t num_ancillas,
                      const std::vector<uint32_t> &pattern,
                      const SynthesisOptions &opts = {});

/**
 * Search ancilla counts 0..maxAncillas (and, per count, augmentation
 * patterns) for the feasible cell with the largest gap.
 */
std::optional<SynthesizedCell>
synthesizeCell(const TruthTable &tt, const SynthesisOptions &opts = {});

/**
 * Count how many of the 2^(v*num_ancillas) augmentation patterns give a
 * solvable system (paper: 8 of the 16 one-ancilla XOR augmentations).
 * Only valid when the pattern space is exhaustively enumerable.
 */
size_t countSolvablePatterns(const TruthTable &tt, size_t num_ancillas,
                             const SynthesisOptions &opts = {});

/** Convert a synthesis result into a library-style CellHamiltonian. */
CellHamiltonian toCellHamiltonian(GateType type,
                                  const SynthesizedCell &cell);

} // namespace qac::cells

#endif // QAC_CELLS_SYNTHESIZER_H
