/**
 * @file
 * QMASM assembly: symbolic program -> logical Ising model.
 *
 * Implements the qmasm lowering semantics the paper relies on:
 *  - chains "A = B" either merge the two variables into one (Section
 *    4.4: "Explicit A = B constraints in the code result in merging")
 *    or become a ferromagnetic J coupling whose default magnitude is
 *    "twice the largest-in-magnitude J value that appears literally in
 *    the code" (Section 4.3.5);
 *  - pins "A := v" add a strong bias toward v (H_VCC/H_GND of Section
 *    4.3.4; exact elision is left to the roof-duality pass);
 *  - results are reported "in terms of the program-specified symbolic
 *    names rather than as physical qubit numbers", with '$'-symbols
 *    hidden.
 */

#ifndef QAC_QMASM_ASSEMBLE_H
#define QAC_QMASM_ASSEMBLE_H

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "qac/ising/model.h"
#include "qac/qmasm/program.h"

namespace qac::qmasm {

struct AssembleOptions
{
    /** Merge chained variables into one (qmasm -O behaviour). */
    bool merge_chains = true;
};

/** The assembled logical model plus its symbol table. */
class Assembled
{
  public:
    ising::IsingModel model;

    /** Canonical (preferably user-visible) name for each variable. */
    std::vector<std::string> var_names;
    /** Every program symbol -> variable index (post chain merging). */
    std::unordered_map<std::string, uint32_t> sym_to_var;
    /** Pins applied, by symbol. */
    std::vector<std::pair<std::string, bool>> pins;
    /** Assertion expressions (expanded symbol names). */
    std::vector<std::string> asserts;

    /** Chain coupling magnitude (2x max |J|) and pin bias (the same);
     *  recorded in the .qo. */
    double chain_strength_used = 0.0;
    double pin_strength_used = 0.0;
    /** Constant energy from couplings collapsed by merging. */
    double energy_offset = 0.0;

    /** Variable index for a symbol. Fatal if unknown. */
    uint32_t var(const std::string &sym) const;
    bool hasSymbol(const std::string &sym) const;

    /** Value of a symbol under a model-sized spin assignment. */
    bool symbolValue(const ising::SpinVector &spins,
                     const std::string &sym) const;

    /** All non-internal symbols with their values (the qmasm report). */
    std::map<std::string, bool>
    visibleValues(const ising::SpinVector &spins) const;

    /**
     * Evaluate every assert under @p spins.
     * @param failed if non-null, receives the first failing expression
     * @return true when all asserts hold
     */
    bool checkAsserts(const ising::SpinVector &spins,
                      std::string *failed = nullptr) const;
};

/** Assemble a program (expanding macros first). */
Assembled assemble(const Program &prog, const AssembleOptions &opts = {});

/**
 * Evaluate one assert expression over symbol values.
 * Grammar: equality ('='/'!=') over '|' over '^' over '&' over
 * unary '~'/'!' over parens/symbols/true/false/0/1.
 */
bool evalAssertExpr(const std::string &expr,
                    const std::map<std::string, bool> &values);

} // namespace qac::qmasm

#endif // QAC_QMASM_ASSEMBLE_H
