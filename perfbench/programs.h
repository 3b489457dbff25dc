/**
 * @file
 * The benchmark's input programs — the paper's examples plus a seeded
 * random 3-CNF — and independent references for checking what QAC
 * compiles from them: C++ arithmetic for forward evaluation, and truth
 * relations for exact ground states.
 */

#ifndef QACBENCH_PROGRAMS_H
#define QACBENCH_PROGRAMS_H

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "qac/core/compiler.h"
#include "qac/core/program.h"

namespace qacbench {

/** One source program with the options the benchmark compiles it
 *  with (logical target, one thread, no artifact cache). */
struct Program
{
    std::string name;
    std::string source;
    qac::core::CompileOptions opts;
};

/** Listing 5 (circuit-sat), Listing 6 (4x4 multiplier), Listing 7
 *  (Australia), Listing 3 (6-bit counter, unrolled 4 steps), Fig. 2
 *  (mux add/sub), plus helpers for the other workloads. */
Program muxAddSub();
Program circuitSat();
Program multiplier(unsigned bits);
Program australia();
Program counter();

/** A random satisfiable 3-CNF (planted assignment), DIMACS text. */
Program randomCnf(uint64_t seed, uint32_t vars, uint32_t clauses);

/** The compile workload's program set, in a seed-shuffled order. */
std::vector<Program> compileSet(uint64_t seed);

/**
 * Forward-evaluate @p exe on @p vectors seeded input vectors and
 * compare every output port with the C++ reference for @p name.
 * Returns "" when all agree, else a description of the first
 * mismatch.  Programs without a reference (the CNF) return "".
 */
std::string checkForward(const std::string &name,
                         const qac::core::Executable &exe,
                         std::mt19937_64 &rng, int vectors);

/**
 * Check that the exact ground states of @p exe's logical model are
 * exactly the program's truth relation (every input vector appears,
 * with the reference outputs, and nothing else does).  For
 * "circsat" and "mult" (2x2); returns "" on success.
 */
std::string checkGroundStates(const std::string &name,
                              const qac::core::Executable &exe);

/** Australia's adjacency check on a decoded colouring. */
bool australiaValid(const std::map<std::string, uint64_t> &colour);

/** The circuit-sat output for inputs a, b, c (Listing 5). */
bool circsatOutput(bool a, bool b, bool c);

/** Australia's region port names. */
const std::vector<std::string> &australiaRegions();

} // namespace qacbench

#endif // QACBENCH_PROGRAMS_H
