/**
 * @file
 * Packed Metropolis sweep engines over ising::PackedState
 * (DESIGN.md §13).
 *
 * A packed sweep walks every variable once and, per variable, decides
 * all 64 replica lanes together: form the candidate mask
 * (delta_{i,l} < thresh — exactly the lanes whose scalar walker would
 * draw a uniform), draw one uniform per candidate lane from that
 * lane's own xoshiro256** stream, accept by metropolisAcceptU, and
 * apply the accepted flips in one batched pass over the CSR row.
 *
 * Three engines implement this contract: a portable scalar one, an
 * AVX2 one (QAC_ENABLE_AVX2 build option, util::avx2Supported()
 * hosts) and an AVX-512 one (QAC_ENABLE_AVX512, avx512Supported()).
 * They are required to be bit-identical — per lane, each must
 * reproduce the scalar LocalFieldState walker exactly — so engine
 * selection is a pure performance decision and never observable in
 * results.
 */

#ifndef QAC_ANNEAL_PACKED_SWEEP_H
#define QAC_ANNEAL_PACKED_SWEEP_H

#include <cstdint>

#include "qac/ising/packed.h"
#include "qac/util/rng.h"

namespace qac::anneal {

/**
 * 64 xoshiro256** generators in structure-of-arrays form: state word
 * w of lane l lives at s[w][l], so the vector engines can step four
 * (AVX2) or eight (AVX-512) lanes per vector op while any single lane
 * remains steppable alone.  Lanes advance only when they draw — lane
 * l consumes exactly the uniforms scalar read base+l consumes, in the
 * same order.
 */
struct LaneRngs
{
    uint64_t s[4][ising::PackedState::kLanes] = {};

    /** Install @p rng's current state as lane @p lane's stream. */
    void
    set(uint32_t lane, const Rng &rng)
    {
        const auto st = rng.state();
        for (int w = 0; w < 4; ++w)
            s[w][lane] = st[w];
    }

    /** Step lane @p lane — bitwise Rng::next on its state words. */
    uint64_t
    next(uint32_t lane)
    {
        const uint64_t s1 = s[1][lane];
        const uint64_t result =
            ((s1 * 5 << 7) | (s1 * 5 >> 57)) * 9;
        const uint64_t t = s1 << 17;
        s[2][lane] ^= s[0][lane];
        s[3][lane] ^= s1;
        s[1][lane] ^= s[2][lane];
        s[0][lane] ^= s[3][lane];
        s[2][lane] ^= t;
        s[3][lane] = (s[3][lane] << 45) | (s[3][lane] >> 19);
        return result;
    }

    /** Bitwise Rng::uniform for lane @p lane. */
    double
    uniform(uint32_t lane)
    {
        return static_cast<double>(next(lane) >> 11) * 0x1.0p-53;
    }
};

/**
 * Packed passes that cover @p num_reads reads, kLanes to a pass.  In
 * 64 bits: rounding up a read count near UINT32_MAX overflows 32.
 */
constexpr uint64_t
packedPasses(uint64_t num_reads)
{
    return (num_reads + ising::PackedState::kLanes - 1) /
           ising::PackedState::kLanes;
}

/**
 * One packed Metropolis sweep at inverse temperature @p beta with
 * draw threshold @p thresh (= kMaxExpArg / beta in the SA sampler).
 * Returns the OR of all candidate masks — bit l set means lane l
 * drew at least once this sweep (the freeze-out signal).
 */
using PackedSweepFn = uint64_t (*)(ising::PackedState &state,
                                   LaneRngs &rngs, double beta,
                                   double thresh);

/** Portable engine (always available). */
uint64_t packedSweepScalar(ising::PackedState &state, LaneRngs &rngs,
                           double beta, double thresh);

/** True when the AVX2 engine was compiled in (QAC_ENABLE_AVX2). */
bool packedSweepAvx2Compiled();

/**
 * AVX2 engine.  Only callable when packedSweepAvx2Compiled(); the
 * stub build panics.
 */
uint64_t packedSweepAvx2(ising::PackedState &state, LaneRngs &rngs,
                         double beta, double thresh);

/** True when the AVX-512 engine was compiled in (QAC_ENABLE_AVX512). */
bool packedSweepAvx512Compiled();

/**
 * AVX-512 engine (8 lanes per vector op, mask-register accept logic).
 * Only callable when packedSweepAvx512Compiled(); the stub build
 * panics.
 */
uint64_t packedSweepAvx512(ising::PackedState &state, LaneRngs &rngs,
                           double beta, double thresh);

/**
 * The engine for this host — the highest rung of the ladder that is
 * compiled in, CPU-supported, and not vetoed by environment override:
 * AVX-512, then AVX2, then scalar.  QAC_NO_AVX512 skips the top rung;
 * QAC_NO_AVX2 forces scalar.
 */
PackedSweepFn selectPackedSweep();

/** "avx512", "avx2" or "scalar" — what selectPackedSweep() resolved
 *  to. */
const char *packedSweepEngineName();

} // namespace qac::anneal

#endif // QAC_ANNEAL_PACKED_SWEEP_H
