/**
 * @file
 * Exp-free-most-of-the-time Metropolis acceptance.
 *
 * The stochastic samplers accept an uphill move of cost delta > 0 with
 * probability exp(-x), x = beta * delta.  A transcendental exp per
 * proposal dominates the sweep once flip deltas are O(1) to obtain
 * (DESIGN.md §9), so the test u < exp(-x) is squeezed between two
 * cheap exact bounds:
 *
 *     (1 - x/2)^2  <=  exp(-x)  <=  1 / (1 + x + x^2/2)
 *
 * (left: exp(-x/2) >= 1 - x/2; right: exp(x) >= 1 + x + x^2/2 for
 * x >= 0).  Only a draw that lands between the bounds — a few percent
 * across an anneal schedule — pays for the exp.  The decision and the
 * number of uniforms consumed are identical to the plain test, so
 * trajectories and the DESIGN.md §8 determinism contract are
 * unchanged.
 *
 * The test is also laid out to be branch-predictor friendly: both
 * bound comparisons combine into a single almost-always-taken branch
 * ("the draw missed the gap"), and the verdict itself is a flag-set,
 * not a branch.  Mid-schedule acceptance hovers near 1/2, so any
 * data-dependent branch in here would be a coin-flip mispredict per
 * proposal; the caller's accept-or-not branch is the only one left.
 */

#ifndef QAC_ANNEAL_METROPOLIS_H
#define QAC_ANNEAL_METROPOLIS_H

#include <cmath>

#include "qac/util/rng.h"

namespace qac::anneal {

/**
 * exp(-x) for x above this is below the resolution of Rng::uniform()
 * (53 bits), so an uphill move this steep can be rejected without
 * paying for the exp() call.  The SA sweeps skip every lane whose
 * delta is at or above kMaxExpArg / beta.
 */
constexpr double kMaxExpArg = 40.0;

/**
 * Second-stage resolution for a draw that landed in the first-stage
 * squeeze gap (between the quadratic bounds).  For x >= 1/16 a pair of
 * degree-5/4 truncated-series bounds decides almost every remaining
 * draw:
 *
 *     1 - x + x^2/2 - x^3/6 + x^4/24 - x^5/120  <=  exp(-x)
 *     exp(x)  >=  1 + x + x^2/2 + x^3/6 + x^4/24
 *
 * (left: alternating series with decreasing terms; right: positive
 * series).  At x = 1/16 the mathematical slack of both bounds exceeds
 * 1e-11 — orders of magnitude above evaluation rounding — so the
 * verdicts agree with u < exp(-x) exactly and trajectories are
 * unchanged; below 1/16 the first-stage gap is O(x^3) ~ 1e-5 wide and
 * exp is effectively never reached anyway.  The packed vector engines
 * (DESIGN.md §13) replicate the two stages with the identical
 * expression shapes and call this tail for the leftovers, so every
 * engine computes the identical decision.
 */
inline bool
metropolisAcceptTail(double u, double x)
{
    if (x >= 0.0625) {
        const double x2 = (0.5 * x) * x;
        const double x3 = (x2 * x) * (1.0 / 3.0);
        const double x4 = (x3 * x) * 0.25;
        const double x5 = (x4 * x) * 0.2;
        const double lo = ((((1.0 - x) + x2) - x3) + x4) - x5;
        if (u < lo)
            return true;
        const double hi = (((1.0 + x) + x2) + x3) + x4;
        if (u * hi >= 1.0)
            return false;
    }
    return u < std::exp(-x);
}

/**
 * The acceptance decision for an already-drawn uniform @p u: accept a
 * move of scaled cost x with probability min(1, exp(-x)).  Any x <= 0
 * accepts via the lower bound (t >= 1 so u < t*t always holds).
 * Split out from metropolisAccept so the packed sweep engines
 * (DESIGN.md §13), which draw their uniforms from per-lane generator
 * states, decide by the identical arithmetic.
 */
inline bool
metropolisAcceptU(double u, double x)
{
    const double t = 1.0 - 0.5 * x;
    // Branchless bound tests (note & and |, not && and ||).
    const bool below = (t > 0.0) & (u < t * t);
    const bool above = u * (1.0 + x + 0.5 * x * x) >= 1.0;
    if (below | above)
        return below;
    return metropolisAcceptTail(u, x);
}

/**
 * Accept a move of scaled cost x with probability min(1, exp(-x));
 * one uniform is consumed unconditionally either way.
 */
inline bool
metropolisAccept(Rng &rng, double x)
{
    return metropolisAcceptU(rng.uniform(), x);
}

} // namespace qac::anneal

#endif // QAC_ANNEAL_METROPOLIS_H
