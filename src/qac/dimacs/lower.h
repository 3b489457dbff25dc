/**
 * @file
 * Clause -> Ising lowering via penalty gadgets (Bian et al., "Solving
 * SAT and MaxSAT with a Quantum Annealer"; see DESIGN.md section 14).
 *
 * Every clause becomes a penalty Hamiltonian that is 0 on satisfying
 * assignments and exactly the clause's penalty weight otherwise:
 *
 *   1-2 literals  direct product expansion, no ancillas
 *   3+ literals   Tseitin-style OR chain: an ancilla d = l1 | l2,
 *                 then d' = d | l3, ... with the last pair closed by
 *                 the 2-literal clause gadget
 *
 * OR-gadget ancillas are shared: two clauses whose (canonically
 * sorted) leading literal pairs agree reuse one ancilla, recursively
 * through the chain, so overlapping wide clauses pay for their common
 * prefix once.  The zero-penalty consistency of the OR gadget makes
 * sharing exact: each use just adds its own copy of the gadget
 * penalty, all of which vanish at the consistent ancilla value.
 *
 * Soft MaxSAT clauses scale their gadget by the written weight; hard
 * clauses by (sum of soft weights + 1), so one hard violation always
 * costs more than every soft clause together.
 */

#ifndef QAC_DIMACS_LOWER_H
#define QAC_DIMACS_LOWER_H

#include "qac/dimacs/dimacs.h"
#include "qac/qmasm/program.h"

namespace qac::dimacs {

/** Per-frontend compile options for DIMACS (CompileOptions variant). */
struct FrontendOptions
{
    /** Reuse OR-gadget ancillas across identical sub-clauses. */
    bool share_ancillas = true;
};

/** Lowering result: symbolic program + decode metadata. */
struct Lowered
{
    qmasm::Program program;
    DecodeInfo decode;
};

/**
 * Lower a parsed instance to a QMASM program whose ground states are
 * the instance's (Max)SAT optima:
 *   penalty(assignment) = H(spins) + decode.energy_offset
 */
Lowered lower(const Instance &inst, const FrontendOptions &opts = {});

} // namespace qac::dimacs

#endif // QAC_DIMACS_LOWER_H
