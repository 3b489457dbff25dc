/**
 * @file
 * Calls into QAC layers that the benchmark can time or delay from
 * outside: a layer-by-layer rerun of core::compile's logical path, a
 * "verilog" frontend built from those layers, and sampler wrappers
 * registered beside the real samplers.
 */

#ifndef QACBENCH_HOOKS_H
#define QACBENCH_HOOKS_H

#include <map>
#include <string>

#include "bench.h"
#include "programs.h"
#include "qac/core/compiler.h"

namespace qacbench {

/** Layer counts of one layered compile (gates, bytes, statements). */
using Counts = std::map<std::string, double>;

/**
 * core::compile for Target::Logical, one public layer call at a time,
 * in the order core::compile makes them.  Each call's duration is
 * recorded in @p spans (when non-null) as "<program>|<layer>", and the
 * result is the CompileResult core::compile returns, so its .qo digest
 * must match.  @p edif_read_delay_ms delays edif::readEdif (self-test).
 */
qac::core::CompileResult layeredCompile(const Program &p, Spans *spans,
                                        Counts *counts,
                                        double edif_read_delay_ms = 0.0);

/** The layer names layeredCompile records, in pipeline order. */
const std::vector<std::string> &compileLayers();

/**
 * Register a "qacbench.verilog" frontend — the real pipeline rebuilt
 * from layer calls — that delays edif::readEdif by the given time per
 * top module.  Self-test only.
 */
void registerDelayedVerilogFrontend(
    std::map<std::string, double> edif_read_delay_ms);

/**
 * Sampler wrappers "qacbench.sa" and "qacbench.chainflip": each
 * builds the real sampler through anneal::makeSampler, times every
 * sample() call into spans() under "anneal.sample|<solver>|<reads>|<n>",
 * under "anneal.sample", and under "anneal.sample.small" (fewer than 8
 * reads) or "anneal.sample.packed"; when a delay is set for the first
 * key, it busy-waits for it before the call.
 */
struct SamplerHook
{
    Spans spans;
    std::map<std::string, double> delay_ms; ///< by span key
};
SamplerHook &samplerHook();
void registerTimedSamplers();

} // namespace qacbench

#endif // QACBENCH_HOOKS_H
