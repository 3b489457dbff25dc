#include "qac/chimera/hardware_graph.h"

#include <algorithm>

#include "qac/util/logging.h"

namespace qac::chimera {

HardwareGraph::HardwareGraph(size_t num_nodes)
    : adj_(num_nodes), active_(num_nodes, true)
{}

size_t
HardwareGraph::numActiveNodes() const
{
    size_t n = 0;
    for (bool a : active_)
        if (a)
            ++n;
    return n;
}

void
HardwareGraph::reserveDegree(size_t degree)
{
    for (auto &nbrs : adj_)
        nbrs.reserve(degree);
}

void
HardwareGraph::addEdge(uint32_t u, uint32_t v)
{
    if (u >= adj_.size() || v >= adj_.size())
        panic("HardwareGraph: edge endpoint out of range");
    if (u == v)
        panic("HardwareGraph: self-loop");
    if (hasEdge(u, v))
        return;
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    ++num_edges_;
}

bool
HardwareGraph::hasEdge(uint32_t u, uint32_t v) const
{
    if (u >= adj_.size() || v >= adj_.size())
        return false;
    const std::vector<uint32_t> &a = adj_[u];
    const std::vector<uint32_t> &b = adj_[v];
    if (a.size() <= b.size())
        return std::find(a.begin(), a.end(), v) != a.end();
    return std::find(b.begin(), b.end(), u) != b.end();
}

const std::vector<uint32_t> &
HardwareGraph::neighbors(uint32_t u) const
{
    if (u >= adj_.size())
        panic("HardwareGraph: node out of range");
    return adj_[u];
}

void
HardwareGraph::deactivate(uint32_t u)
{
    if (u >= active_.size())
        panic("HardwareGraph: node out of range");
    active_[u] = false;
}

std::vector<uint32_t>
HardwareGraph::activeNodes() const
{
    std::vector<uint32_t> out;
    for (uint32_t u = 0; u < active_.size(); ++u)
        if (active_[u])
            out.push_back(u);
    return out;
}

std::vector<std::pair<uint32_t, uint32_t>>
HardwareGraph::activeEdges() const
{
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (uint32_t u = 0; u < adj_.size(); ++u) {
        if (!active_[u])
            continue;
        for (uint32_t v : adj_[u])
            if (u < v && active_[v])
                out.emplace_back(u, v);
    }
    return out;
}

HardwareGraph
HardwareGraph::complete(size_t n)
{
    HardwareGraph g(n);
    for (uint32_t u = 0; u < n; ++u)
        for (uint32_t v = u + 1; v < n; ++v)
            g.addEdge(u, v);
    return g;
}

} // namespace qac::chimera
