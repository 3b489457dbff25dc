/**
 * @file
 * DIMACS CNF/WCNF frontend: parsing and solution decoding.
 *
 * Accepts the standard SAT-competition formats (Bian et al., "Solving
 * SAT and MaxSAT with a Quantum Annealer"):
 *
 *   c comment lines (and blank lines) anywhere
 *   p cnf  <vars> <clauses>
 *   p wcnf <vars> <clauses> [<top>]
 *   1 -5 4 0              a clause, zero-terminated
 *   3 1 -5 4 0            (wcnf) weight-prefixed clause
 *
 * Parsing is strict: a missing/duplicate `p` line, an out-of-range
 * literal, a clause without its 0 terminator, a clause-count mismatch
 * with the header, or a non-positive wcnf weight are all fatal errors
 * naming the offending line.  The SATLIB convention of ending a file
 * with a lone `%` line is accepted (everything after it is ignored).
 *
 * WCNF semantics: a clause whose weight is >= the header's top weight
 * is *hard*; every other clause is *soft* with its literal weight.  A
 * wcnf header without a top value makes every clause soft (the
 * original weighted-MaxSAT dialect).  Plain cnf makes every clause
 * hard with unit penalty weight, so the lowered model's ground states
 * are maximum-satisfiability assignments whether or not the instance
 * is satisfiable.
 *
 * DecodeInfo is the frontend's decode metadata: everything needed to
 * map a sampled spin assignment back to a DIMACS `v`-line model and a
 * clause-satisfaction account *without the original source* — it
 * travels inside .qo objects, so `qma run instance.qo` and a qmad
 * daemon report exactly what a local `qacc --run` reports.
 */

#ifndef QAC_DIMACS_DIMACS_H
#define QAC_DIMACS_DIMACS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace qac::dimacs {

/** One clause: nonzero literals, DIMACS sign convention. */
struct Clause
{
    std::vector<int32_t> lits;
    uint64_t weight = 1; ///< as written (wcnf); 1 for cnf
    bool hard = true;    ///< cnf clause, or wcnf weight >= top
};

/** A parsed CNF/WCNF instance. */
struct Instance
{
    uint32_t num_vars = 0;
    bool weighted = false;   ///< from a `p wcnf` header
    uint64_t top_weight = 0; ///< wcnf hard-clause threshold; 0 = none
    std::vector<Clause> clauses;
};

/**
 * Parse DIMACS text.  Throws FatalError on malformed input, with the
 * 1-based line number in the message.
 */
Instance parseDimacs(const std::string &text);

/**
 * Decode metadata for one lowered instance (see lower.h).  Stored in
 * core::CompileResult and serialized into .qo objects; the clause
 * list plus the x<i> symbol naming convention (varSymbol) is the
 * variable<->spin map that lets any executor reconstruct the model
 * line and the satisfaction account.
 */
struct DecodeInfo
{
    uint32_t num_vars = 0;
    bool weighted = false;
    uint64_t top_weight = 0;
    /** Penalty applied to each hard clause: soft total + 1. */
    double hard_weight = 1.0;
    /** Constant such that  penalty(sigma) = H(sigma) + offset :
     *  a zero-violation assignment sits at energy -offset. */
    double energy_offset = 0.0;
    uint32_t num_ancillas = 0;    ///< OR-gadget ancillas emitted
    uint32_t shared_ancillas = 0; ///< reuse hits across sub-clauses
    std::vector<Clause> clauses;
};

/** The logical-model symbol naming DIMACS variable @p var (1-based). */
std::string varSymbol(uint32_t var);

/** Assignment accessor: true/false for each 1-based variable. */
using AssignmentFn = std::function<bool(uint32_t var)>;

/** Clause-satisfaction account of one assignment. */
struct ClauseEval
{
    uint64_t clauses_satisfied = 0;
    uint64_t clauses_total = 0;
    uint64_t hard_unsatisfied = 0;
    /** Total written weight of unsatisfied soft clauses (for cnf,
     *  where every clause is hard, the number of unsatisfied ones). */
    double violated_weight = 0.0;

    bool hardOk() const { return hard_unsatisfied == 0; }
};

ClauseEval evaluateClauses(const DecodeInfo &info,
                           const AssignmentFn &value);

/**
 * The DIMACS model line for an assignment: "v 1 -2 3 ... 0" with one
 * literal per variable in index order.
 */
std::string modelLine(const DecodeInfo &info, const AssignmentFn &value);

/** Brute-force oracle result over the original (non-ancilla) vars. */
struct Optimum
{
    /** Minimum total violated soft weight over assignments satisfying
     *  the maximum possible set of hard clauses. */
    double violated_weight = 0.0;
    uint64_t hard_unsatisfied = 0; ///< 0 iff hard clauses satisfiable
    std::vector<bool> assignment;  ///< one optimal witness, [0]=var 1
};

/**
 * Enumerate all 2^num_vars assignments (the exact reference every
 * stochastic result is tested against).  Hard clauses dominate
 * lexicographically: minimize unsatisfied hard clauses first, then
 * violated soft weight.  Fatal when num_vars > @p max_vars.
 */
Optimum bruteForceOptimum(const Instance &inst, uint32_t max_vars = 26);

} // namespace qac::dimacs

#endif // QAC_DIMACS_DIMACS_H
