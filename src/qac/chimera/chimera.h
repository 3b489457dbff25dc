/**
 * @file
 * The D-Wave Chimera topology (paper, Section 2, Figure 1).
 *
 * "The physical topology is called a Chimera graph and is a 2-D mesh of
 * 8-qubit bipartite graphs, called unit cells. ... A D-Wave 2000Q is
 * laid out as a C16 Chimera graph, which denotes a 16x16 mesh of unit
 * cells" — 2048 qubits.  Each unit cell is a K_{4,4}; one partition
 * couples to the vertical neighbors, the other to the horizontal ones.
 */

#ifndef QAC_CHIMERA_CHIMERA_H
#define QAC_CHIMERA_CHIMERA_H

#include <cstdint>

#include "qac/chimera/hardware_graph.h"

namespace qac::chimera {

/** Qubit coordinates inside a Chimera graph. */
struct ChimeraCoord
{
    uint32_t row = 0;
    uint32_t col = 0;
    /** 0 = "vertical" partition (north/south links), 1 = "horizontal". */
    uint32_t half = 0;
    uint32_t index = 0; ///< 0..3 within the partition
};

/**
 * The largest Chimera size QAC builds or loads: C64, 32768 qubits, 16x
 * the paper's C16.  core::compile rejects a larger --chimera-size, and
 * a .qo whose hardware graph has more than kMaxChimeraQubits qubits
 * fails to load, before either allocates the graph.
 */
constexpr uint32_t kMaxChimeraSize = 64;
constexpr uint32_t kMaxChimeraQubits =
    8 * kMaxChimeraSize * kMaxChimeraSize;

/**
 * Build a C_m Chimera graph (m x m unit cells, 8m^2 qubits).
 * C16 is the D-Wave 2000Q of the paper.
 */
HardwareGraph chimeraGraph(uint32_t m);

/** Linear qubit id for a coordinate in a C_m graph. */
uint32_t chimeraIndex(uint32_t m, const ChimeraCoord &c);

/** Inverse of chimeraIndex. */
ChimeraCoord chimeraCoord(uint32_t m, uint32_t id);

/**
 * Deactivate a random fraction of qubits ("there is inevitably some
 * drop-out", Section 2).
 */
void applyDropout(HardwareGraph &g, double fraction, uint64_t seed);

/** Convenience: the paper's target, a C16 with optional dropout. */
HardwareGraph dwave2000q(double dropout_fraction = 0.0,
                         uint64_t seed = 1);

} // namespace qac::chimera

#endif // QAC_CHIMERA_CHIMERA_H
