/**
 * @file
 * AVX-512 packed sweep engine (DESIGN.md §13).
 *
 * Eight replica lanes per vector op, and the accept logic lives in
 * mask registers: candidate masks come straight out of
 * _mm512_cmp_pd_mask, per-lane RNG state commits are masked stores,
 * and the flip application is masked merges (mask_xor for the own
 * deltas, mask_add for the neighbours', a masked add for the flip
 * counters) — none of the nibble expansion / blendv selection the
 * AVX2 engine needs.  The u64→f64 step of the uniform is the native
 * _mm512_cvtepu64_pd, exact below 2^53 like the scalar conversion.
 *
 * A dense row visit draws in two passes (squeeze every candidate
 * group, then resolve the rare gaps) and applies flips to all eight
 * groups without compacting the ones that flipped: a dense row flips
 * lanes in nearly every group (DESIGN.md §13).
 *
 * Compiled with -mavx512f -mavx512dq and -ffp-contract=off — AVX-512F
 * brings FMA instructions with it, and a contracted a*b+c would break
 * the bitwise scalar/vector parity contract.  Every multiply, add and
 * compare here mirrors the scalar engine's expression shapes
 * (metropolisAcceptU + metropolisAcceptTail) exactly, so the engine
 * is bit-identical to the scalar and AVX2 ones per lane.
 *
 * When QAC_ENABLE_AVX512 is off this TU compiles to a stub that
 * reports the engine absent.
 */

#include "qac/anneal/packed_sweep.h"

#if defined(QAC_PACKED_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

#include <array>
#include <cmath>
#include <limits>

#include "qac/anneal/metropolis.h"

namespace qac::anneal {

namespace {

constexpr uint32_t kLanes = ising::PackedState::kLanes;
constexpr int kGroups = static_cast<int>(kLanes) / 8;

/** Candidates at or above this popcount draw via the lockstep vector
 *  path; sparser masks iterate set bits scalar-wise.  Either path is
 *  bit-identical per lane, so the cut is pure tuning. */
constexpr int kVectorDrawCut = 8;
/** Same idea for the batched flip application. */
constexpr int kVectorApplyCut = 4;

/**
 * Horizontal min of 8 lanes.  Explicit shuffle tree rather than
 * _mm512_reduce_min_pd: GCC's header implementation starts from an
 * undefined vector and trips -Wmaybe-uninitialized when inlined.  min
 * is associative, and the summary tolerates ±0.0 ordering differences
 * (DESIGN.md §13), so any reduction order is fine.
 */
inline double
reduceMin8(__m512d v)
{
    const __m256d m4 = _mm256_min_pd(_mm512_castpd512_pd256(v),
                                     _mm512_extractf64x4_pd(v, 1));
    const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(m4),
                                  _mm256_extractf128_pd(m4, 1));
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    return _mm_cvtsd_f64(m1);
}

/** Element e of lane-bit vector g is bit 8g+e: the test mask of a
 *  broadcast 64-lane word against it is group g's byte of that word. */
constexpr auto kLaneBit = [] {
    std::array<uint64_t, kLanes> b{};
    for (uint32_t l = 0; l < kLanes; ++l)
        b[l] = uint64_t{1} << l;
    return b;
}();

/**
 * Stage 1 of the lockstep draw for one 8-lane group: steps the
 * group's xoshiro states vectorized, commits new state only for
 * candidate lanes (one masked store per state word), forms the
 * uniforms @p u and scaled costs @p x, and runs metropolisAcceptU's
 * quadratic squeeze with identical expression shapes.  Returns the
 * accepted lanes; @p gap gets the candidate lanes the squeeze left
 * undecided (resolveGap8).
 */
inline unsigned
squeezeGroup8(LaneRngs &rngs, int g, unsigned cand, __m512d d,
              __m512d beta_v, __m512d &u, __m512d &x, unsigned &gap)
{
    const int base = 8 * g;

    __m512i s0 = _mm512_loadu_si512(&rngs.s[0][base]);
    __m512i s1 = _mm512_loadu_si512(&rngs.s[1][base]);
    __m512i s2 = _mm512_loadu_si512(&rngs.s[2][base]);
    __m512i s3 = _mm512_loadu_si512(&rngs.s[3][base]);

    // result = rotl(s1 * 5, 7) * 9, with ×5 and ×9 as exact shift+add.
    const __m512i r5 = _mm512_add_epi64(_mm512_slli_epi64(s1, 2), s1);
    const __m512i rot = _mm512_rol_epi64(r5, 7);
    const __m512i result =
        _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);

    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);

    // Only candidate lanes consumed a draw; masked stores leave the
    // other lanes' state untouched.  Full-group candidacy (the common
    // case at hot betas) takes plain stores.
    if (cand == 0xffu) {
        _mm512_storeu_si512(&rngs.s[0][base], s0);
        _mm512_storeu_si512(&rngs.s[1][base], s1);
        _mm512_storeu_si512(&rngs.s[2][base], s2);
        _mm512_storeu_si512(&rngs.s[3][base], s3);
    } else {
        const __mmask8 cm = static_cast<__mmask8>(cand);
        _mm512_mask_storeu_epi64(&rngs.s[0][base], cm, s0);
        _mm512_mask_storeu_epi64(&rngs.s[1][base], cm, s1);
        _mm512_mask_storeu_epi64(&rngs.s[2][base], cm, s2);
        _mm512_mask_storeu_epi64(&rngs.s[3][base], cm, s3);
    }

    // Exact (next() >> 11) * 2^-53, as in Rng::uniform.
    u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(result, 11)),
                      _mm512_set1_pd(0x1.0p-53));

    // metropolisAcceptU's squeeze, identical shapes:
    // t = 1 - 0.5*x; below = (t > 0) & (u < t*t);
    // above = u * ((1 + x) + (0.5*x)*x) >= 1.
    const __m512d one = _mm512_set1_pd(1.0);
    x = _mm512_mul_pd(beta_v, d);
    const __m512d halfx = _mm512_mul_pd(_mm512_set1_pd(0.5), x);
    const __m512d tt = _mm512_sub_pd(one, halfx);
    const __mmask8 below =
        _mm512_cmp_pd_mask(tt, _mm512_setzero_pd(), _CMP_GT_OQ) &
        _mm512_cmp_pd_mask(u, _mm512_mul_pd(tt, tt), _CMP_LT_OQ);
    const __m512d x2 = _mm512_mul_pd(halfx, x); // (0.5*x)*x
    const __m512d poly = _mm512_add_pd(_mm512_add_pd(one, x), x2);
    const __mmask8 above = _mm512_cmp_pd_mask(
        _mm512_mul_pd(u, poly), one, _CMP_GE_OQ);

    gap = cand & ~unsigned(below | above);
    return below & cand;
}

/**
 * Stage 2 and the scalar tail for the @p gap lanes of one group,
 * whose draws the squeeze left undecided: metropolisAcceptTail's
 * degree-5/4 bounds with identical shapes (valid for x >= 1/16),
 * then metropolisAcceptTail itself, on the same uniform, for the rare
 * draws both stages leave open.  Returns the accepted gap lanes.
 */
inline unsigned
resolveGap8(__m512d u, __m512d x, unsigned gap)
{
    const __m512d one = _mm512_set1_pd(1.0);
    const __mmask8 s2ok = _mm512_cmp_pd_mask(
        x, _mm512_set1_pd(0.0625), _CMP_GE_OQ);
    const __m512d x2 = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5),
                                                   x),
                                     x);
    const __m512d x3 = _mm512_mul_pd(_mm512_mul_pd(x2, x),
                                     _mm512_set1_pd(1.0 / 3.0));
    const __m512d x4 = _mm512_mul_pd(_mm512_mul_pd(x3, x),
                                     _mm512_set1_pd(0.25));
    const __m512d x5 = _mm512_mul_pd(_mm512_mul_pd(x4, x),
                                     _mm512_set1_pd(0.2));
    const __m512d lo = _mm512_sub_pd(
        _mm512_add_pd(
            _mm512_sub_pd(
                _mm512_add_pd(_mm512_sub_pd(one, x), x2), x3),
            x4),
        x5);
    const __m512d hi = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(one, x), x2), x3),
        x4);
    unsigned accept = gap & s2ok & _mm512_cmp_pd_mask(u, lo, _CMP_LT_OQ);
    const unsigned rej2 =
        gap & s2ok &
        _mm512_cmp_pd_mask(_mm512_mul_pd(u, hi), one, _CMP_GE_OQ);
    gap &= ~(accept | rej2);
    if (gap != 0) {
        alignas(64) double ua[8], xa[8];
        _mm512_storeu_pd(ua, u);
        _mm512_storeu_pd(xa, x);
        for (; gap != 0; gap &= gap - 1) {
            const int e = __builtin_ctz(gap);
            if (metropolisAcceptTail(ua[e], xa[e]))
                accept |= 1u << e;
        }
    }
    return accept;
}

} // namespace

bool
packedSweepAvx512Compiled()
{
    return true;
}

uint64_t
packedSweepAvx512(ising::PackedState &state, LaneRngs &rngs,
                  double beta, double thresh)
{
    const auto &model = state.model();
    const uint32_t n = static_cast<uint32_t>(model.numVars());
    const uint32_t *nbr = model.neighbors().data();
    const double *w = model.weights().data();
    const uint32_t *row = model.rowOffsets().data();
    double *min_delta = state.minDelta();
    double *delta = state.deltaPlane();
    uint64_t *bits = state.spinBits();
    uint64_t *flip_ctr = state.laneFlipCounters();

    const __m512d thresh_v = _mm512_set1_pd(thresh);
    const __m512d beta_v = _mm512_set1_pd(beta);
    const __m512d sign_v = _mm512_set1_pd(-0.0);
    const __m512i one_v = _mm512_set1_epi64(1);
    const double inf = std::numeric_limits<double>::infinity();

    uint64_t drew = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (min_delta[i] >= thresh)
            continue;
        double *di = delta + size_t{i} * kLanes;

        // ---- candidate scan + exact min refresh (flips land after
        // all of variable i's draws, so scanning and drawing can fuse
        // per group: the deltas at i are stable throughout).
        uint64_t mask = 0;
        uint64_t accept = 0;
        __m512d mn_v = _mm512_set1_pd(inf);
        __m512d dg[kGroups];
        for (int g = 0; g < kGroups; ++g) {
            dg[g] = _mm512_loadu_pd(di + 8 * g);
            mask |= uint64_t{_mm512_cmp_pd_mask(dg[g], thresh_v,
                                                _CMP_LT_OQ)}
                    << (8 * g);
            mn_v = _mm512_min_pd(mn_v, dg[g]);
        }
        if (mask == 0) {
            min_delta[i] = reduceMin8(mn_v);
            continue;
        }
        drew |= mask;

        // ---- per-lane draws → accept mask.  The vector path squeezes
        // every candidate group before it branches on any gap, so the
        // eight groups' independent chains overlap.
        if (__builtin_popcountll(mask) >= kVectorDrawCut) {
            __m512d u[kGroups], x[kGroups];
            uint64_t gap = 0;
            for (int g = 0; g < kGroups; ++g) {
                const unsigned cand =
                    static_cast<unsigned>((mask >> (8 * g)) & 0xff);
                if (cand == 0) {
                    u[g] = x[g] = _mm512_setzero_pd(); // no gap bits
                    continue;
                }
                unsigned gg = 0;
                accept |= uint64_t{squeezeGroup8(rngs, g, cand, dg[g],
                                                 beta_v, u[g], x[g], gg)}
                          << (8 * g);
                gap |= uint64_t{gg} << (8 * g);
            }
            while (gap != 0) {
                const int g = __builtin_ctzll(gap) / 8;
                const unsigned gg =
                    static_cast<unsigned>((gap >> (8 * g)) & 0xff);
                gap &= ~(uint64_t{0xff} << (8 * g));
                accept |= uint64_t{resolveGap8(u[g], x[g], gg)}
                          << (8 * g);
            }
        } else {
            for (uint64_t m = mask; m != 0; m &= m - 1) {
                const unsigned l =
                    static_cast<unsigned>(__builtin_ctzll(m));
                const double u = rngs.uniform(l);
                accept |=
                    uint64_t{metropolisAcceptU(u, beta * di[l])} << l;
            }
        }
        if (accept == 0) {
            // No flip at i: the scanned min survives the sweep.  (On
            // the flip paths below min_delta[i] is dirtied to -inf, so
            // the reduction would be wasted work — deferring it here
            // skips it for most hot-phase variables.)
            min_delta[i] = reduceMin8(mn_v);
            continue;
        }

        // ---- batched flip application
        if (__builtin_popcountll(accept) < kVectorApplyCut) {
            state.applyFlips(i, accept);
            continue;
        }
        // Merge each group's flipped lanes into full-vector stores
        // (other lanes get their own bits back): bump their flip
        // counters and negate their deltas from the loaded dg[g].
        __mmask8 am[kGroups];
        for (int g = 0; g < kGroups; ++g) {
            am[g] = static_cast<__mmask8>((accept >> (8 * g)) & 0xff);
            const __m512i ctr = _mm512_loadu_si512(flip_ctr + 8 * g);
            _mm512_storeu_si512(flip_ctr + 8 * g,
                                _mm512_mask_add_epi64(ctr, am[g], ctr,
                                                      one_v));
            _mm512_storeu_pd(di + 8 * g, _mm512_mask_xor_pd(
                                             dg[g], am[g], dg[g], sign_v));
        }
        const uint64_t bits_new = (bits[i] ^= accept);
        const uint32_t end = row[i + 1];
        for (uint32_t k = row[i]; k < end; ++k) {
            const uint32_t j = nbr[k];
            // Same-spin lanes gain -4w, differing lanes +4w — the
            // exact values LocalFieldState::flip adds (see
            // PackedState::applyFlips); the sign select is an XOR of
            // the sign bit, exact for signed zeros too.
            const __m512d w4_v = _mm512_set1_pd(-4.0 * w[k]);
            const __m512i differ = _mm512_set1_epi64(
                static_cast<long long>(bits_new ^ bits[j]));
            double *dj = delta + size_t{j} * kLanes;
            for (int g = 0; g < kGroups; ++g) {
                const __mmask8 dm = _mm512_test_epi64_mask(
                    differ, _mm512_loadu_si512(&kLaneBit[8 * g]));
                const __m512d addend =
                    _mm512_mask_xor_pd(w4_v, dm, w4_v, sign_v);
                const __m512d old = _mm512_loadu_pd(dj + 8 * g);
                _mm512_storeu_pd(dj + 8 * g,
                                 _mm512_mask_add_pd(old, am[g], old,
                                                    addend));
            }
            min_delta[j] = -inf;
        }
        min_delta[i] = -inf;
    }
    return drew;
}

} // namespace qac::anneal

#else // stub build: engine absent

#include "qac/util/logging.h"

namespace qac::anneal {

bool
packedSweepAvx512Compiled()
{
    return false;
}

uint64_t
packedSweepAvx512(ising::PackedState &, LaneRngs &, double, double)
{
    panic("packedSweepAvx512: built without QAC_ENABLE_AVX512");
}

} // namespace qac::anneal

#endif
