/**
 * @file
 * Randomized heuristic minor embedder in the style of Cai, Macready,
 * and Roy (arXiv:1406.2741), the algorithm behind D-Wave's SAPI
 * embedder the paper uses ("we use a randomized, heuristic minor
 * embedder", Section 6.1 — hence "the number of physical qubits varies
 * from compilation to compilation").
 *
 * Each logical vertex keeps a *vertex model* (chain).  Vertices are
 * (re)placed one at a time: a Dijkstra pass from each embedded
 * neighbor's chain, over qubits weighted exponentially in their current
 * overuse, selects a root qubit minimizing the total connection cost;
 * the union of the shortest paths becomes the new chain.  Rounds repeat
 * until no qubit is shared by two chains.
 */

#ifndef QAC_EMBED_MINORMINER_H
#define QAC_EMBED_MINORMINER_H

#include <optional>

#include "qac/embed/embedding.h"

namespace qac::embed {

struct EmbedParams
{
    uint64_t seed = 1;
    uint32_t tries = 8;       ///< independent restarts
    uint32_t rounds = 48;     ///< improvement rounds per try
    /** Qubit weight = base^overuse; 0 = auto (|V|, so one overlap
     *  always outweighs any overlap-free detour).  Otherwise it must be
     *  finite and >= 1: findEmbedding throws FatalError on anything
     *  else. */
    double overuse_base = 0.0;
    /** Keep improving chain sizes after the first feasible round. */
    bool minimize_qubits = true;
    /** Workers for concurrent tries; 0 = hardware concurrency.  The
     *  lowest-indexed successful try always wins, so the embedding is
     *  identical for any thread count. */
    uint32_t threads = 0;
};

/**
 * Embed a logical graph into @p hw.
 * @param logical_edges  logical couplings (u, v), u != v
 * @param num_logical    number of logical variables (isolated ones get
 *                       singleton chains)
 * @return an embedding verified by verifyEmbedding, or nullopt.
 */
std::optional<Embedding>
findEmbedding(const std::vector<std::pair<uint32_t, uint32_t>>
                  &logical_edges,
              size_t num_logical, const chimera::HardwareGraph &hw,
              const EmbedParams &params = {});

} // namespace qac::embed

#endif // QAC_EMBED_MINORMINER_H
