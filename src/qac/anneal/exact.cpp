#include "qac/anneal/exact.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qac/exec/exec.h"
#include "qac/ising/compiled.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"

namespace qac::anneal {

namespace {

/** Energies this close count as the same ground level. */
constexpr double kTol = 1e-9;

/** Spin state after Gray-code step k: bit i of k^(k>>1) set => +1. */
ising::SpinVector
grayState(uint64_t k, size_t n)
{
    uint64_t g = k ^ (k >> 1);
    ising::SpinVector spins(n, -1);
    for (size_t i = 0; i < n; ++i)
        if ((g >> i) & 1)
            spins[i] = 1;
    return spins;
}

struct ShardResult
{
    double min_energy = std::numeric_limits<double>::infinity();
    std::vector<ising::SpinVector> ground_states;
    bool truncated = false;
};

/**
 * Connected components of the coupling graph, each listed in
 * ascending variable order; the components themselves are ordered by
 * their smallest variable.  Deterministic, so the composed
 * ground-state list below is too.
 */
std::vector<std::vector<uint32_t>>
couplingComponents(const ising::IsingModel &model)
{
    const size_t n = model.numVars();
    std::vector<std::vector<uint32_t>> adj(n);
    for (const auto &t : model.quadraticTerms()) {
        adj[t.i].push_back(t.j);
        adj[t.j].push_back(t.i);
    }
    std::vector<std::vector<uint32_t>> comps;
    std::vector<bool> seen(n, false);
    std::vector<uint32_t> stack;
    for (uint32_t v = 0; v < n; ++v) {
        if (seen[v])
            continue;
        std::vector<uint32_t> comp;
        seen[v] = true;
        stack.push_back(v);
        while (!stack.empty()) {
            uint32_t u = stack.back();
            stack.pop_back();
            comp.push_back(u);
            for (uint32_t w : adj[u])
                if (!seen[w]) {
                    seen[w] = true;
                    stack.push_back(w);
                }
        }
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
    }
    return comps;
}

/** The sub-model induced by @p vars (ascending original ids). */
ising::IsingModel
inducedModel(const ising::IsingModel &model,
             const std::vector<uint32_t> &vars)
{
    std::vector<uint32_t> to_local(model.numVars(), UINT32_MAX);
    for (uint32_t k = 0; k < vars.size(); ++k)
        to_local[vars[k]] = k;
    ising::IsingModel sub;
    sub.resize(vars.size());
    for (uint32_t k = 0; k < vars.size(); ++k) {
        double h = model.linear(vars[k]);
        if (h != 0.0)
            sub.addLinear(k, h);
    }
    for (const auto &t : model.quadraticTerms())
        if (to_local[t.i] != UINT32_MAX)
            sub.addQuadratic(to_local[t.i], to_local[t.j], t.value);
    return sub;
}

} // namespace

ExactResult
ExactSolver::solve(const ising::IsingModel &model) const
{
    const size_t n = model.numVars();

    ExactResult res;
    if (n == 0) {
        res.min_energy = 0.0;
        res.ground_states.emplace_back();
        return res;
    }

    // The 2^n wall applies per *connected component*, not per model:
    // energies are additive across components, so each is enumerated
    // independently and the ground-state sets composed.  This is what
    // lets the differential oracle enumerate a fully-pinned circuit
    // whose residual gadget clusters are small even when their union
    // is far beyond max_vars.
    std::vector<std::vector<uint32_t>> comps =
        couplingComponents(model);
    if (comps.size() > 1)
        return solveComposed(model, comps);

    if (n > params_.max_vars)
        fatal("ExactSolver: %zu variables exceeds the limit of %zu", n,
              params_.max_vars);

    // CSR walk: flipDelta is O(degree) over flat arrays, shared
    // read-only by every shard.
    const ising::CompiledModel kernel(model);

    // The Gray-code walk is split into contiguous shards whose
    // boundaries depend only on the problem size — never the thread
    // count — so the per-shard floating-point accumulation (and hence
    // the result) is bitwise identical for any --threads value.
    const uint64_t total = uint64_t{1} << n;
    uint64_t shards = total >> 16; // >= 2^16 states per shard
    shards = std::min<uint64_t>(std::max<uint64_t>(shards, 1), 64);
    const uint64_t per = total / shards; // exact: powers of two

    std::vector<ShardResult> parts(shards);
    {
        stats::ScopedTimer timer("anneal.exact.time");
        exec::parallelFor(shards, params_.threads, [&](size_t s) {
            ShardResult &r = parts[s];
            const uint64_t lo = uint64_t{s} * per;
            const uint64_t hi = lo + per;
            ising::SpinVector spins = grayState(lo, n);
            double energy = kernel.energy(spins);

            auto consider = [&](double e) {
                if (e < r.min_energy - kTol) {
                    r.min_energy = e;
                    r.ground_states.clear();
                    r.ground_states.push_back(spins);
                    r.truncated = false;
                } else if (std::abs(e - r.min_energy) <= kTol) {
                    if (r.ground_states.size() < kMaxGroundStates)
                        r.ground_states.push_back(spins);
                    else
                        r.truncated = true;
                }
            };

            consider(energy);
            // Gray-code walk: step k flips the lowest set bit of k.
            for (uint64_t k = lo + 1; k < hi; ++k) {
                uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(k));
                energy += kernel.flipDelta(spins, bit);
                spins[bit] = static_cast<ising::Spin>(-spins[bit]);
                consider(energy);
            }
        });
    }

    // Merge shards in walk order; same accept rule as the sequential
    // scan, so the combined state list matches a single-shard run.
    res.min_energy = std::numeric_limits<double>::infinity();
    for (const ShardResult &part : parts) {
        bool contributes = false;
        if (part.min_energy < res.min_energy - kTol) {
            res.min_energy = part.min_energy;
            res.ground_states.clear();
            res.truncated = false;
            contributes = true;
        } else if (std::abs(part.min_energy - res.min_energy) <= kTol) {
            contributes = true;
        }
        if (!contributes)
            continue;
        for (const auto &gs : part.ground_states) {
            if (res.ground_states.size() < kMaxGroundStates)
                res.ground_states.push_back(gs);
            else
                res.truncated = true;
        }
        if (part.truncated)
            res.truncated = true;
    }

    stats::count("anneal.exact.states", total);
    stats::count("anneal.exact.ground_states", res.ground_states.size());
    return res;
}

ExactResult
ExactSolver::solveComposed(
    const ising::IsingModel &model,
    const std::vector<std::vector<uint32_t>> &comps) const
{
    // Seed with one empty template assignment, then take the cross
    // product of each component's ground-state set (energies add,
    // states are independent).  Components and their states arrive in
    // deterministic order, so the composed list is deterministic too.
    ExactResult res;
    res.min_energy = 0.0;
    res.ground_states.emplace_back(model.numVars(), ising::Spin{-1});
    for (const auto &comp : comps) {
        ExactResult part = solve(inducedModel(model, comp));
        res.min_energy += part.min_energy;
        if (part.truncated)
            res.truncated = true;
        std::vector<ising::SpinVector> combined;
        bool full = false;
        for (size_t a = 0; a < res.ground_states.size() && !full; ++a) {
            for (const auto &gs : part.ground_states) {
                if (combined.size() == kMaxGroundStates) {
                    res.truncated = true;
                    full = true;
                    break;
                }
                ising::SpinVector s = res.ground_states[a];
                for (size_t k = 0; k < comp.size(); ++k)
                    s[comp[k]] = gs[k];
                combined.push_back(std::move(s));
            }
        }
        res.ground_states = std::move(combined);
    }
    stats::count("anneal.exact.composed");
    return res;
}

double
ExactSolver::minEnergy(const ising::IsingModel &model) const
{
    // solve() without storing states would save memory; ground-state
    // lists are small in practice, so reuse it.
    return solve(model).min_energy;
}

SampleSet
ExactSolver::sample(const ising::IsingModel &model) const
{
    ExactResult res = solve(model);
    SampleSet out;
    for (const auto &gs : res.ground_states)
        out.add(gs, res.min_energy);
    out.finalize();
    return out;
}

} // namespace qac::anneal
