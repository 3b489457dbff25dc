#include "qac/chimera/chimera.h"

#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::chimera {

uint32_t
chimeraIndex(uint32_t m, const ChimeraCoord &c)
{
    if (c.row >= m || c.col >= m || c.half > 1 || c.index > 3)
        panic("chimeraIndex: bad coordinate");
    return ((c.row * m + c.col) * 2 + c.half) * 4 + c.index;
}

ChimeraCoord
chimeraCoord(uint32_t m, uint32_t id)
{
    ChimeraCoord c;
    c.index = id % 4;
    id /= 4;
    c.half = id % 2;
    id /= 2;
    c.col = id % m;
    c.row = id / m;
    if (c.row >= m)
        panic("chimeraCoord: id out of range");
    return c;
}

HardwareGraph
chimeraGraph(uint32_t m)
{
    HardwareGraph g(static_cast<size_t>(m) * m * 8);
    // Four intra-cell couplers plus at most two to the neighbouring cells.
    g.reserveDegree(6);
    for (uint32_t r = 0; r < m; ++r) {
        for (uint32_t cidx = 0; cidx < m; ++cidx) {
            // Intra-cell K_{4,4}.
            for (uint32_t i = 0; i < 4; ++i)
                for (uint32_t j = 0; j < 4; ++j)
                    g.addEdge(chimeraIndex(m, {r, cidx, 0, i}),
                              chimeraIndex(m, {r, cidx, 1, j}));
            // Vertical partition couples north/south (same index).
            if (r + 1 < m)
                for (uint32_t i = 0; i < 4; ++i)
                    g.addEdge(chimeraIndex(m, {r, cidx, 0, i}),
                              chimeraIndex(m, {r + 1, cidx, 0, i}));
            // Horizontal partition couples east/west.
            if (cidx + 1 < m)
                for (uint32_t i = 0; i < 4; ++i)
                    g.addEdge(chimeraIndex(m, {r, cidx, 1, i}),
                              chimeraIndex(m, {r, cidx + 1, 1, i}));
        }
    }
    return g;
}

void
applyDropout(HardwareGraph &g, double fraction, uint64_t seed)
{
    if (fraction <= 0.0)
        return;
    Rng rng(seed);
    for (uint32_t u = 0; u < g.numNodes(); ++u)
        if (rng.chance(fraction))
            g.deactivate(u);
}

HardwareGraph
dwave2000q(double dropout_fraction, uint64_t seed)
{
    HardwareGraph g = chimeraGraph(16);
    applyDropout(g, dropout_fraction, seed);
    return g;
}

} // namespace qac::chimera
