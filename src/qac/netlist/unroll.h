/**
 * @file
 * Time-to-space unrolling of sequential logic (paper, Section 4.3.3).
 *
 * "The solution we employ in our compiler framework is to statically
 * unroll the code, replicating the entire program for each time step ...
 * with the outputs of one time step serving as the inputs to the
 * subsequent time step."  A D flip-flop instantiated at time t forwards
 * its Q to the same flip-flop's D at time t+1; here that is realized by
 * *merging* the step-t Q net with the step-(t-1) D net, which the QMASM
 * backend later renders as the H_DFF = -sigma_Q sigma_D chain.
 *
 * "In essence, we are trading the program's time dimension for a second
 * spatial dimension. Doing so exacts a heavy toll in qubit count" — the
 * bench_sequential harness quantifies exactly that toll.
 */

#ifndef QAC_NETLIST_UNROLL_H
#define QAC_NETLIST_UNROLL_H

#include <cstddef>
#include <string>

#include "qac/netlist/netlist.h"

namespace qac::netlist {

struct UnrollOptions
{
    /** Separator between a port name and its time step ("out@3"). */
    std::string step_sep = "@";
    /** Expose register initial state as input ports "<reg>@0". */
    bool expose_initial_state = true;
    /** Expose register final state as output ports "<reg>@T". */
    bool expose_final_state = true;
};

/**
 * Replicate the combinational logic of @p nl for @p steps time steps
 * (steps >= 1), producing a purely combinational netlist.
 *
 * Original input port "p" becomes "p@0".."p@T-1"; output port "q"
 * becomes "q@0".."q@T-1"; register bits become "<reg>@0" inputs and
 * "<reg>@T" outputs.  Input ports with no fanout (e.g. the clock) are
 * dropped.  Combinational netlists are returned as a plain copy
 * (single step, original port names preserved).
 */
Netlist unrollSequential(const Netlist &nl, size_t steps,
                         const UnrollOptions &opts = {});

} // namespace qac::netlist

#endif // QAC_NETLIST_UNROLL_H
