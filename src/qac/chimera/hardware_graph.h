/**
 * @file
 * Generic annealer hardware graph: qubits (possibly inactive) and
 * couplers.  Concrete topologies (Chimera) build on this.
 */

#ifndef QAC_CHIMERA_HARDWARE_GRAPH_H
#define QAC_CHIMERA_HARDWARE_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qac::chimera {

class HardwareGraph
{
  public:
    HardwareGraph() = default;
    explicit HardwareGraph(size_t num_nodes);

    size_t numNodes() const { return adj_.size(); }
    size_t numActiveNodes() const;
    size_t numEdges() const { return num_edges_; }

    /** Reserve room for @p degree couplers on every qubit, so a builder
     *  that knows its degree bound never regrows a neighbour list. */
    void reserveDegree(size_t degree);

    /** Add an undirected coupler. Parallel edges are ignored. */
    void addEdge(uint32_t u, uint32_t v);

    /** Scans the shorter of the two neighbour lists (Chimera degree is
     *  at most 6). */
    bool hasEdge(uint32_t u, uint32_t v) const;

    const std::vector<uint32_t> &neighbors(uint32_t u) const;

    /** Mark a qubit as dropped out (it keeps its id but is unusable). */
    void deactivate(uint32_t u);
    bool isActive(uint32_t u) const { return active_[u]; }

    std::vector<uint32_t> activeNodes() const;

    /** All edges (u < v) with both endpoints active. */
    std::vector<std::pair<uint32_t, uint32_t>> activeEdges() const;

    /** Complete graph K_n (the "logical" target: no embedding needed). */
    static HardwareGraph complete(size_t n);

  private:
    std::vector<std::vector<uint32_t>> adj_;
    std::vector<bool> active_;
    size_t num_edges_ = 0;
};

} // namespace qac::chimera

#endif // QAC_CHIMERA_HARDWARE_GRAPH_H
