/**
 * @file
 * Differential verification oracle: simulator I/O relation vs
 * exact-annealer ground states (DESIGN.md §15).
 *
 * The whole premise of the compiler is that the Hamiltonian's ground
 * states encode exactly the circuit's I/O relation.  diffCheck tests
 * that claim end to end: for every input vector (enumerated when the
 * input space is small, sampled otherwise) the reference netlist is
 * event-simulated, the compiled model is pinned to the same inputs
 * and solved exactly, and every ground state must decode to the
 * simulated outputs, satisfy every `!assert` (which is additionally
 * checked against the simulated trace itself), and exist at all.
 * A buggy frontend, techmap, or gate gadget shows up as a concrete
 * (input, expected, got) counterexample instead of a wrong-but-
 * plausible answer.  Exposed as `qacc --verify` and used by the
 * pipeline equivalence fuzzer.
 *
 * Sampled vectors draw from seed 1.  The report keeps the first 8
 * mismatches and stops there.  When the pinned model's largest
 * coupling component exceeds the exact solver's capacity, the oracle
 * falls back to SA at 256 reads and checks its minimum-energy
 * candidates instead: a sampling check can miss a bug exact
 * enumeration would catch, but never reports a false mismatch for a
 * correct compile with adequate reads.
 */

#ifndef QAC_SIM_DIFF_CHECK_H
#define QAC_SIM_DIFF_CHECK_H

#include <cstdint>
#include <string>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/sim/assert_check.h"
#include "qac/sim/xlint.h"

namespace qac::sim {

struct DiffCheckOptions
{
    /** Enumerate the full input space when the total input width is
     *  at most this many bits; otherwise sample `samples` vectors. */
    size_t exhaustive_bits = 14;
    size_t samples = 128;
    /** Threads for the exact enumeration shards (0 = hardware). */
    uint32_t threads = 0;

    /**
     * Reference netlist to simulate (nullptr = the compiled netlist).
     * Passing an independently derived netlist — e.g. a raw synthesis
     * with optimization and techmapping disabled, as `qacc --verify`
     * does — turns the self-consistency check into a true
     * differential oracle over those stages.  Ports are matched by
     * name; reference input ports missing from the compiled netlist
     * (optimized-away unused inputs) are simulated but not pinned.
     */
    const netlist::Netlist *reference = nullptr;
};

/** One disagreement, with enough context to reproduce it. */
struct DiffMismatch
{
    uint64_t vector_index = 0; ///< enumeration value or sample number
    std::string detail;        ///< human-readable description
};

struct DiffReport
{
    uint64_t vectors_checked = 0;
    uint64_t ground_states_checked = 0;
    bool exhaustive = false;
    /** False when the stochastic fallback replaced exact enumeration. */
    bool exact_ground_states = true;
    std::vector<DiffMismatch> mismatches;
    AssertTraceResult asserts;  ///< trace-side assert results
    XLintReport lint;           ///< X/Z lint of the reference netlist

    bool ok() const { return mismatches.empty(); }
    /** Multi-line human-readable summary (used by qacc --verify). */
    std::string describe() const;
};

/**
 * Run the differential oracle over @p compiled.  Fatal for
 * netlist-less frontends (DIMACS) and for netlists without ports.
 */
DiffReport diffCheck(const core::CompileResult &compiled,
                     const DiffCheckOptions &opts = {});

} // namespace qac::sim

#endif // QAC_SIM_DIFF_CHECK_H
