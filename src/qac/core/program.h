/**
 * @file
 * Executable: a compiled program you can run forward or backward.
 *
 * "The real benefit of our work lies in the ability to run programs not
 * only from inputs to outputs but also from outputs to inputs" (Section
 * 5.1).  Pins bind any subset of ports; the annealer solves for the
 * rest; gate-level asserts verify each returned sample, realizing the
 * paper's check-then-discard loop for NP verifiers (Section 5.2).
 */

#ifndef QAC_CORE_PROGRAM_H
#define QAC_CORE_PROGRAM_H

#include <map>
#include <string>
#include <vector>

#include "qac/anneal/sampleset.h"
#include "qac/core/compiler.h"
#include "qac/core/pins.h"
#include "qac/service/request.h"

namespace qac::core {

class Executable
{
  public:
    explicit Executable(CompileResult compiled);

    const CompileResult &compiled() const { return compiled_; }

    /** Bind a whole port to an integer (LSB = bit 0). */
    void pinPort(const std::string &port, uint64_t value);
    /** Bind one symbol. */
    void pinBit(const std::string &symbol, bool value);
    /** qmasm-style directive, e.g. "C[7:0] := 10001111". */
    void pinDirective(const std::string &directive);
    void clearPins();
    const std::vector<PinSpec> &pins() const { return pins_; }

    /**
     * Execution options: a service::SampleRequest, the single home of
     * the solver/reads/sweeps/seed/threads knobs, shared verbatim with
     * the qmad wire protocol.  Pins may come from the request's
     * directives and/or the pinPort/pinBit/pinDirective state on the
     * Executable; run() uses the union.
     */
    using RunOptions = service::SampleRequest;

    /** One distinct returned assignment. */
    struct Candidate
    {
        std::map<std::string, bool> values; ///< visible symbols
        double energy = 0.0;
        uint32_t occurrences = 0;
        bool valid = false;   ///< all gate asserts + pins hold;
                              ///< DIMACS: all hard clauses satisfied
        size_t chain_breaks = 0;
        ising::SpinVector logical_spins;

        /** DIMACS decode (empty/zero for other frontends): the
         *  "v ... 0" model line and clause-satisfaction account. */
        std::string model_line;
        uint64_t clauses_satisfied = 0;
        uint64_t clauses_total = 0;
        double weight_violated = 0.0;
    };

    struct RunResult
    {
        std::vector<Candidate> candidates; ///< unique, best-energy first
        uint64_t total_reads = 0;
        size_t vars_sampled = 0;   ///< after reduction/embedding
        size_t vars_fixed = 0;     ///< elided a priori

        bool hasValid() const;
        const Candidate &bestValid() const;
        std::vector<const Candidate *> validCandidates() const;
        /** Fraction of reads that produced a valid assignment. */
        double validFraction() const;
    };

    RunResult run(const RunOptions &opts) const;
    RunResult run() const { return run(RunOptions()); }

    /** Read a multi-bit port from a candidate (LSB = bit 0). */
    uint64_t portValue(const Candidate &c, const std::string &port)
        const;

    /**
     * Classical forward check (Section 5.2's polynomial-time verify):
     * evaluate the netlist on the given input-port values and return
     * the outputs.
     */
    std::map<std::string, uint64_t>
    evaluate(const std::map<std::string, uint64_t> &inputs) const;

  private:
    CompileResult compiled_;
    std::vector<PinSpec> pins_;

    ising::IsingModel
    pinnedModel(const std::vector<PinSpec> &pins) const;
};

} // namespace qac::core

#endif // QAC_CORE_PROGRAM_H
