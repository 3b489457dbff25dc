/**
 * @file
 * Deterministic random-number generation.
 *
 * Every stochastic component in QAC (annealers, the minor embedder) draws
 * from an explicitly seeded Rng so experiments are reproducible.  The
 * engine is xoshiro256** — fast, high quality, and trivially seedable.
 */

#ifndef QAC_UTIL_RNG_H
#define QAC_UTIL_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qac {

/** Seedable xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Next raw 64-bit value.  Defined inline: the annealer sweeps draw
     * once per proposal, and an out-of-line call here is measurable
     * against the O(1) flip-delta lookup it accompanies.
     */
    uint64_t
    next()
    {
        const uint64_t result = rotl_(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl_(s_[3], 45);
        return result;
    }

    /**
     * Advance the state by @p n steps, exactly as @p n calls to next()
     * (or uniform()) would, on a register copy of the state.
     */
    void
    discard(uint64_t n)
    {
        uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
        for (; n != 0; --n) {
            const uint64_t t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = rotl_(s3, 45);
        }
        s_[0] = s0;
        s_[1] = s1;
        s_[2] = s2;
        s_[3] = s3;
    }

    /** UniformRandomBitGenerator interface (usable with std::shuffle). */
    uint64_t operator()() { return next(); }
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1): a 53-bit mantissa from the top bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Random ±1 spin. */
    int8_t
    spin()
    {
        return (next() & 1) ? int8_t{1} : int8_t{-1};
    }

    /** Uniform integer in [0, n) for n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli(p). */
    bool chance(double p);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng fork();

    /**
     * Raw xoshiro256** state words.  Exposed so lane-parallel kernels
     * can transpose many generators into structure-of-arrays form and
     * step them in lockstep while reproducing each stream bit for bit.
     */
    std::array<uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /**
     * Counter-based stream derivation: the @p index-th independent
     * stream of @p seed.  Unlike fork(), which advances shared
     * generator state and therefore depends on call order, streamAt is
     * a pure function of (seed, index) — parallel workers can draw
     * their streams in any order and still reproduce the sequential
     * run bit for bit.  Stream i of seed s never collides with stream
     * j != i, and distinct seeds yield unrelated stream families.
     */
    static Rng streamAt(uint64_t seed, uint64_t index);

  private:
    static uint64_t
    rotl_(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

} // namespace qac

#endif // QAC_UTIL_RNG_H
