#include "qac/embed/minorminer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "qac/exec/exec.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::embed {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNone = UINT32_MAX;
/** A placement whose weights could sum to this or more could overflow
 *  a path sum; its searches run to completion. */
constexpr double kOverflowSum = 1e300;
/** The first limit of a bounded search: a few unused-qubit hops. */
constexpr double kFirstLimit = 2.0;

class Embedder
{
  public:
    Embedder(const std::vector<std::pair<uint32_t, uint32_t>> &edges,
             size_t num_logical, const chimera::HardwareGraph &hw,
             const EmbedParams &params)
        : params_(params), n_(static_cast<uint32_t>(hw.numNodes())),
          nbrs_(num_logical),
          chains_(num_logical), usage_(n_, 0), active_(n_, 0),
          adj_start_(n_ + 1, 0), comp_(n_, kNone), words_((n_ + 63) / 64),
          weight_(n_, kInf), near_(words_, 0)
    {
        for (const auto &[a, b] : edges) {
            if (a >= num_logical || b >= num_logical)
                fatal("findEmbedding: edge endpoint out of range");
            if (a == b)
                continue;
            nbrs_[a].push_back(b);
            nbrs_[b].push_back(a);
        }
        for (auto &nb : nbrs_) {
            std::sort(nb.begin(), nb.end());
            nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
        }
        // Active-to-active couplers only, in the graph's neighbour
        // order: the shortest-path search never looks at a dead qubit.
        for (uint32_t q = 0; q < n_; ++q)
            active_[q] = hw.isActive(q) ? 1 : 0;
        for (uint32_t q = 0; q < n_; ++q) {
            if (active_[q])
                for (uint32_t v : hw.neighbors(q))
                    if (active_[v])
                        adj_.push_back(v);
            adj_start_[q + 1] = static_cast<uint32_t>(adj_.size());
        }
        // Connected components of the active graph: without overflow a
        // search reaches exactly its sources' component.
        std::vector<uint32_t> stack;
        uint32_t comps = 0;
        for (uint32_t q = 0; q < n_; ++q) {
            if (!active_[q] || comp_[q] != kNone)
                continue;
            std::vector<uint64_t> &bits = comp_bits_.emplace_back(words_, 0);
            comp_[q] = comps;
            stack.push_back(q);
            while (!stack.empty()) {
                const uint32_t u = stack.back();
                stack.pop_back();
                bits[u >> 6] |= uint64_t{1} << (u & 63);
                for (uint32_t i = adj_start_[u]; i < adj_start_[u + 1]; ++i)
                    if (comp_[adj_[i]] == kNone) {
                        comp_[adj_[i]] = comps;
                        stack.push_back(adj_[i]);
                    }
            }
            ++comps;
        }
    }

    /** One independent restart; abandons work once @p token reports a
     *  lower-indexed try has already succeeded. */
    std::optional<Embedding>
    attempt(Rng rng, const exec::CancelToken &token, size_t index)
    {
        token_ = &token;
        index_ = index;
        stats::count("embed.minorminer.tries");
        effort_ = {};
        std::optional<Embedding> emb = tryOnce(rng);
        if (stats::Registry::global().enabled()) {
            stats::count("embed.minorminer.placements", effort_.placements);
            stats::count("embed.minorminer.settled", effort_.settled);
            stats::count("embed.minorminer.limit_raises", effort_.raises);
            stats::count("embed.minorminer.far_visits", effort_.far_visits);
            stats::record("embed.minorminer.rounds",
                          static_cast<double>(effort_.rounds));
        }
        return emb;
    }

  private:
    /** A queued shortest-path label: qubit @c node reached at @c dist. */
    struct Label
    {
        double dist;
        uint32_t node;
    };

    /** Labels in nondecreasing distance; those before @c head are
     *  consumed. */
    struct Fifo
    {
        std::vector<Label> labels;
        size_t head = 0;
    };

    /** One neighbour chain's shortest-path search, settled level by
     *  level up to a limit and resumable from there. */
    struct Search
    {
        double *dist = nullptr; ///< row of dist_
        uint32_t *pred = nullptr; ///< row of pred_
        /** fifo[k]: pending labels set by a qubit of usage k. */
        std::vector<Fifo> fifo;
        std::vector<uint32_t> settled; ///< in settling order
        /** The next pending level (kInf once the search is done): no
         *  unsettled qubit ends up closer, and every qubit with
         *  dist < next has its final dist and pred. */
        double next = 0.0;
        uint32_t comp = kNone; ///< the sources' component
    };

    const EmbedParams &params_;
    const uint32_t n_; ///< hardware qubits
    std::vector<std::vector<uint32_t>> nbrs_; ///< logical adjacency
    std::vector<std::vector<uint32_t>> chains_;
    std::vector<uint32_t> usage_;
    /** use_hist_[k]: qubits of usage k; its last entry is nonzero after
     *  maxUse(). */
    std::vector<uint32_t> use_hist_;
    /** Qubits whose usage changed since the last refreshWeights(), with
     *  repeats. */
    std::vector<uint32_t> dirty_;
    uint32_t round_ = 0;
    double noise_ = 0.2;
    const exec::CancelToken *token_ = nullptr;
    size_t index_ = 0;

    std::vector<uint8_t> active_;
    std::vector<uint32_t> adj_start_; ///< CSR row starts into adj_
    std::vector<uint32_t> adj_;       ///< active neighbours of each qubit
    std::vector<uint32_t> comp_; ///< active-graph component (kNone: dead)
    const size_t words_; ///< 64-qubit words of a qubit bitmap
    /** comp_bits_[c]: bitmap of component c's qubits. */
    std::vector<std::vector<uint64_t>> comp_bits_;

    /** weight_[q] = pow_[usage_[q]] (kInf when dead), brought up to
     *  date by refreshWeights() for each placement; pow_ holds this
     *  round's base^k for k = 0, 1, ... . */
    std::vector<double> weight_;
    std::vector<double> pow_;
    uint32_t pow_round_ = UINT32_MAX;
    /** Whether a path sum could overflow this placement (n_ times the
     *  largest weight reaches kOverflowSum): then searches run to
     *  completion. */
    bool overflow_ = false;
    size_t fifos_ = 0; ///< label FIFOs per search: max usage + 1

    // Shortest-path state, one n_-sized row per embedded neighbour of
    // the vertex being placed, reused across placements.
    std::vector<double> dist_;
    std::vector<uint32_t> pred_;
    std::vector<Search> search_;
    /** Labels of the distance level being settled in heap order. */
    std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>
        level_;
    /** A root candidate still unsettled in some search. */
    struct Open
    {
        uint32_t qubit;
        double factor; ///< its noise factor
        double bound;  ///< lower bound on its noisy cost
    };
    std::vector<Open> open_; ///< in qubit order
    /** Bitmap of the qubits some search of this placement settled;
     *  chooseRoot() clears it again. */
    std::vector<uint64_t> near_;
    /** This try's search effort, published when it ends. */
    struct Effort
    {
        uint64_t placements = 0; ///< placements that ran searches
        uint64_t settled = 0;    ///< qubits their searches settled
        uint64_t raises = 0;     ///< search limit raises
        /** Placements that visited their far qubits one by one (see
         *  chooseRoot). */
        uint64_t far_visits = 0;
        uint64_t rounds = 0; ///< rounds completed
    };
    Effort effort_;

    /** The largest usage of any qubit. */
    uint32_t
    maxUse()
    {
        while (use_hist_.size() > 1 && use_hist_.back() == 0)
            use_hist_.pop_back();
        return static_cast<uint32_t>(use_hist_.size() - 1);
    }

    /** One more chain on qubit @p q. */
    void
    addUse(uint32_t q)
    {
        --use_hist_[usage_[q]];
        if (++usage_[q] == use_hist_.size())
            use_hist_.push_back(0);
        ++use_hist_[usage_[q]];
        dirty_.push_back(q);
    }

    /** One chain fewer on qubit @p q. */
    void
    dropUse(uint32_t q)
    {
        --use_hist_[usage_[q]];
        ++use_hist_[--usage_[q]];
        dirty_.push_back(q);
    }

    /**
     * Weight every qubit for the placement about to run.  The penalty
     * base must exceed any possible fresh-path cost so that one
     * overlapped qubit is always worse than any detour through unused
     * qubits (CMR use |V|^usage).  Escalate mildly with the round to
     * shake persistent overlaps.  Usage only changes once the new chain
     * is installed, so these weights hold for the whole placement.
     * Within a round pow_ only grows, so only the qubits whose usage
     * changed need a new weight; a new round rewrites them all.  Also
     * gives every usage value present a label FIFO, and notes whether
     * a path sum could overflow.
     */
    void
    refreshWeights()
    {
        const bool refill = pow_round_ != round_;
        if (refill) {
            pow_round_ = round_;
            pow_.clear();
        }
        double base = params_.overuse_base > 0.0
                          ? params_.overuse_base
                          : static_cast<double>(n_);
        base *= static_cast<double>(1 + round_);
        const uint32_t max_use = maxUse();
        while (pow_.size() <= max_use)
            pow_.push_back(std::pow(base, static_cast<double>(pow_.size())));
        if (refill) {
            for (uint32_t q = 0; q < n_; ++q)
                if (active_[q])
                    weight_[q] = pow_[usage_[q]];
        } else {
            for (uint32_t q : dirty_)
                weight_[q] = pow_[usage_[q]];
        }
        dirty_.clear();
        // n_ * pow_[max_use] bounds every path sum, kInf included.
        overflow_ = !(pow_[max_use] < kOverflowSum / n_);
        fifos_ = std::max<size_t>(fifos_, max_use + 1);
    }

    /**
     * Start a multi-source shortest-path search from every qubit of
     * @p sources and settle its level 0.  dist[q] is the summed weight
     * of the *interior* qubits on the cheapest path from the source set
     * to q — q's own weight is excluded, so the caller can charge the
     * root qubit exactly once across neighbors.  pred[q] walks back
     * toward the source set and is kNone exactly on the source chain
     * and on unreachable qubits.  resume() settles further levels.
     *
     * Every settled qubit's dist and pred are exactly those of a
     * binary-heap Dijkstra popping (dist, qubit) pairs in lexicographic
     * order and keeping the first predecessor to reach each qubit's
     * final distance; see DESIGN.md §3 (src/embed) for why the buckets
     * below reproduce it.
     */
    void
    start(Search &s, const std::vector<uint32_t> &sources)
    {
        std::fill(s.dist, s.dist + n_, kInf);
        std::fill(s.pred, s.pred + n_, kNone);
        if (s.fifo.size() < fifos_)
            s.fifo.resize(fifos_);
        for (Fifo &f : s.fifo) {
            f.labels.clear();
            f.head = 0;
        }
        s.settled.clear();
        s.comp = comp_[sources[0]];
        for (uint32_t q : sources) {
            s.dist[q] = 0.0;
            level_.push(q);
        }
        drainLevel(s, 0.0);
        s.next = nextLevel(s);
    }

    /** Settle every level of @p s up to and including @p limit. */
    void
    resume(Search &s, double limit)
    {
        while (s.next <= limit && s.next != kInf) {
            const double d = s.next;
            // Every weight is at least 1, so unless adding 1 rounds
            // back to d no label set at this level lands on it: the
            // level is final now, and settling it FIFO by FIFO only
            // needs ties re-ordered.  Otherwise hand the level to the
            // heap.
            const bool absorbing = d + 1.0 == d;
            for (Fifo &f : s.fifo) {
                // settle() may append to f.labels: index, don't iterate.
                for (; f.head < f.labels.size() &&
                       f.labels[f.head].dist == d;
                     ++f.head) {
                    const uint32_t u = f.labels[f.head].node;
                    if (d > s.dist[u])
                        continue;
                    if (absorbing)
                        level_.push(u);
                    else
                        settle(s, u, d, true);
                }
            }
            drainLevel(s, d);
            s.next = nextLevel(s);
        }
    }

    /** Heap order within level @p d: sources and any label that stays
     *  at d (zero-weight or absorbed hops) pop by qubit id as they
     *  arrive. */
    void
    drainLevel(Search &s, double d)
    {
        while (!level_.empty()) {
            const uint32_t u = level_.top();
            level_.pop();
            settle(s, u, d, false);
        }
    }

    /** The smallest live FIFO head of @p s, or kInf. */
    static double
    nextLevel(Search &s)
    {
        double d = kInf;
        for (Fifo &f : s.fifo) {
            const auto &l = f.labels;
            while (f.head < l.size() &&
                   l[f.head].dist > s.dist[l[f.head].node])
                ++f.head; // superseded by a shorter label
            if (f.head < l.size())
                d = std::min(d, l[f.head].dist);
        }
        return d;
    }

    /**
     * Settle qubit u at distance d.  Entering a neighbour costs u's
     * weight, except from a source-chain qubit (a settled qubit without
     * a predecessor).  A label at the current distance joins the level
     * heap; any larger one goes to the FIFO of u's usage, whose labels
     * arrive in nondecreasing order because qubits are settled in
     * nondecreasing distance and that FIFO's weight is constant.  A
     * source keeps distance 0, which no label undercuts, and ties are
     * only re-ordered above 0, so sources need no test.
     */
    void
    settle(Search &s, uint32_t u, double d, bool reorder_ties)
    {
        s.settled.push_back(u);
        double *dist = s.dist;
        uint32_t *pred = s.pred;
        const double nd = d + (pred[u] == kNone ? 0.0 : weight_[u]);
        if (nd == kInf)
            return;
        auto &fifo = s.fifo[usage_[u]].labels;
        const uint32_t *e = adj_.data() + adj_start_[u];
        const uint32_t *end = adj_.data() + adj_start_[u + 1];
        for (; e != end; ++e) {
            const uint32_t v = *e;
            if (nd < dist[v]) {
                dist[v] = nd;
                pred[v] = u;
                if (nd == d)
                    level_.push(v);
                else
                    fifo.push_back({nd, v});
            } else if (reorder_ties && nd == dist[v] && u < pred[v] &&
                       dist[pred[v]] == d) {
                // The heap would have settled u before pred[v].
                pred[v] = u;
            }
        }
    }

    /** Raise the limit of the first @p rows searches (doubling, and at
     *  least to the nearest pending level) and resume them; false when
     *  every search is already finished. */
    bool
    raiseLimit(double &limit, size_t rows)
    {
        double next = kInf;
        for (size_t k = 0; k < rows; ++k)
            next = std::min(next, search_[k].next);
        if (next == kInf)
            return false;
        ++effort_.raises;
        limit = std::max(2.0 * limit, next);
        for (size_t k = 0; k < rows; ++k)
            resume(search_[k], limit);
        return true;
    }

    /** Whether a root candidate is settled in every search, open
     *  (unsettled in some), or unreachable from some chain. */
    enum class Reach
    {
        Settled,
        Open,
        Infeasible
    };

    /**
     * Root candidate @p q's weight plus its distance from each of the
     * first @p rows searches: exact when it is settled in every search,
     * else a lower bound that charges each search it is unsettled in
     * that search's next level (the same sum in the same order, so
     * rounding keeps it a bound).  A root is infeasible when some chain
     * cannot reach it: it is dead, in another component, or unsettled
     * in a finished search (the only case under overflow, where every
     * search is finished).
     */
    double
    rootCost(uint32_t q, size_t rows, Reach &reach) const
    {
        double c = weight_[q];
        reach = c == kInf ? Reach::Infeasible : Reach::Settled;
        for (size_t k = 0; k < rows && reach != Reach::Infeasible; ++k) {
            // A root inside the neighbor's chain connects for free (its
            // distance is 0).
            const Search &s = search_[k];
            const double d = s.dist[q];
            if (d < s.next) {
                c += d;
            } else if (comp_[q] != s.comp || s.next == kInf) {
                reach = Reach::Infeasible;
            } else {
                c += s.next;
                reach = Reach::Open;
            }
        }
        return c;
    }

    /** The least noisy cost of a root settled in every search, with its
     *  noise factor at its largest (1 + noise_): it caps the best cost.
     *  kInf when no root is settled in every search. */
    double
    upperBound(size_t rows) const
    {
        const Search *fewest = &search_[0];
        for (size_t k = 1; k < rows; ++k)
            if (search_[k].settled.size() < fewest->settled.size())
                fewest = &search_[k];
        double ub = kInf;
        for (uint32_t q : fewest->settled) {
            Reach reach;
            const double c = rootCost(q, rows, reach);
            if (reach == Reach::Settled)
                ub = std::min(ub, c * (1.0 + noise_));
        }
        return ub;
    }

    /**
     * The root minimizing own weight + total interior connection cost
     * over the first @p rows searches, raising their @p limit only as
     * far as that choice needs; kNone when no root is feasible.  The
     * choice is the one complete searches would make.
     */
    uint32_t
    chooseRoot(size_t rows, double limit, Rng &rng)
    {
        // Costs carry multiplicative noise: the hardware graph is
        // highly symmetric and many near-equal placements exist;
        // deterministic selection reliably traps the search in local
        // minima (e.g. a walled-in singleton chain whose only overlap
        // spot never moves), while noisy selection lets the overlap
        // wander until a re-placement cascade resolves it.
        double ub = upperBound(rows);
        while (ub == kInf && raiseLimit(limit, rows))
            ub = upperBound(rows);

        // Every feasible root draws its noise in qubit order, as if
        // every search were finished.  An open root whose bound exceeds
        // the best cost can never win; while any other stays open, the
        // limit rises.  A bound equal to the best cost keeps its root
        // open, so the lowest qubit still wins among equal costs.
        //
        // Most qubits are far: no search has settled them, so they are
        // open everywhere, and feasible only when every search is
        // unfinished and in their component.  Then they are the
        // component's qubits outside near_: a finite weight goes with
        // an unfinished search, since without overflow every active
        // weight is finite.  A far qubit costs its weight (at least 1)
        // plus each search's next level, times a noise factor of at
        // least 1; rounding is monotone, so once 1 + sum of next levels
        // (summed in the same order) exceeds ub no far qubit can open
        // or win, and a run of far qubits only advances rng by one draw
        // each.
        bool far_ok = true;
        double far_cost = 1.0;
        for (size_t k = 0; k < rows; ++k) {
            const Search &s = search_[k];
            far_ok = far_ok && s.next != kInf && s.comp == search_[0].comp;
            far_cost += s.next;
            for (uint32_t q : s.settled)
                near_[q >> 6] |= uint64_t{1} << (q & 63);
        }
        const uint64_t *far = far_ok ? comp_bits_[search_[0].comp].data() : nullptr;
        const bool far_visit = far && !(far_cost > ub);
        effort_.far_visits += far_visit;
        uint32_t root = kNone;
        double best_cost = kInf;
        open_.clear();
        uint64_t skipped = 0; // draws of far qubits passed over
        for (size_t w = 0; w < words_; ++w) {
            const uint64_t near = near_[w];
            near_[w] = 0;
            const uint64_t far_w = far ? far[w] & ~near : 0;
            uint64_t visit = near;
            uint64_t skip = 0; // this word's far qubits passed over
            if (far_visit)
                visit |= far_w;
            else
                skip = far_w;
            for (uint64_t m = visit; m != 0; m &= m - 1) {
                const int b = std::countr_zero(m);
                const uint64_t below = (uint64_t{1} << b) - 1;
                skipped += static_cast<uint64_t>(std::popcount(skip & below));
                skip &= ~below;
                rng.discard(skipped);
                skipped = 0;
                const uint32_t q = static_cast<uint32_t>(w * 64 + b);
                Reach reach = Reach::Open;
                double c = weight_[q];
                if (near >> b & 1) {
                    c = rootCost(q, rows, reach);
                    if (reach == Reach::Infeasible)
                        continue;
                } else {
                    for (size_t k = 0; k < rows; ++k)
                        c += search_[k].next;
                }
                // Noise anneals away over the rounds: early exploration,
                // late convergence.
                const double factor = 1.0 + noise_ * rng.uniform();
                c *= factor;
                if (reach == Reach::Open) {
                    if (c <= best_cost && c <= ub)
                        open_.push_back({q, factor, c});
                } else if (c < best_cost) {
                    best_cost = c;
                    root = q;
                }
            }
            skipped += static_cast<uint64_t>(std::popcount(skip));
        }
        rng.discard(skipped);
        for (;;) {
            size_t kept = 0;
            for (const Open &o : open_)
                if (o.bound <= best_cost)
                    open_[kept++] = o;
            open_.resize(kept);
            if (open_.empty() || !raiseLimit(limit, rows))
                return root;
            kept = 0;
            for (Open o : open_) {
                Reach reach;
                const double c = rootCost(o.qubit, rows, reach) * o.factor;
                if (reach == Reach::Open) {
                    o.bound = c;
                    open_[kept++] = o;
                } else if (reach == Reach::Settled &&
                           (c < best_cost ||
                            (c == best_cost && o.qubit < root))) {
                    best_cost = c;
                    root = o.qubit;
                }
            }
            open_.resize(kept);
        }
    }

    void
    tearOut(uint32_t v)
    {
        for (uint32_t q : chains_[v])
            dropUse(q);
        chains_[v].clear();
    }

    /** Append one qubit to an existing chain (no-op if present). */
    void
    addToChain(uint32_t u, uint32_t q)
    {
        auto &c = chains_[u];
        if (std::find(c.begin(), c.end(), q) == c.end()) {
            c.push_back(q);
            addUse(q);
        }
    }

    void
    install(uint32_t v, std::vector<uint32_t> chain)
    {
        std::sort(chain.begin(), chain.end());
        chain.erase(std::unique(chain.begin(), chain.end()), chain.end());
        for (uint32_t q : chain)
            addUse(q);
        chains_[v] = std::move(chain);
    }

    /** Re-place vertex @p v given the current chains of its neighbors. */
    bool
    placeVertex(uint32_t v, Rng &rng)
    {
        tearOut(v);

        std::vector<uint32_t> embedded_nbrs;
        for (uint32_t u : nbrs_[v])
            if (!chains_[u].empty())
                embedded_nbrs.push_back(u);

        if (embedded_nbrs.empty()) {
            // Free placement: pick a random least-used active qubit.
            uint32_t best = kNone;
            uint32_t best_use = UINT32_MAX;
            uint64_t seen = 0;
            for (uint32_t q = 0; q < n_; ++q) {
                if (!active_[q])
                    continue;
                if (usage_[q] < best_use) {
                    best_use = usage_[q];
                    best = q;
                    seen = 1;
                } else if (usage_[q] == best_use) {
                    // Reservoir-sample among ties.
                    ++seen;
                    if (rng.below(seen) == 0)
                        best = q;
                }
            }
            if (best == kNone)
                return false;
            install(v, {best});
            return true;
        }

        // One shortest-path search per embedded neighbor, settled only
        // as far as the root choice needs.
        refreshWeights();
        const size_t rows = embedded_nbrs.size();
        if (dist_.size() < rows * n_) {
            dist_.resize(rows * n_);
            pred_.resize(rows * n_);
        }
        if (search_.size() < rows)
            search_.resize(rows);
        double limit = overflow_ ? kInf : kFirstLimit;
        for (size_t k = 0; k < rows; ++k) {
            Search &s = search_[k];
            s.dist = &dist_[k * n_];
            s.pred = &pred_[k * n_];
            start(s, chains_[embedded_nbrs[k]]);
            resume(s, limit);
        }

        const uint32_t root = chooseRoot(rows, limit, rng);
        ++effort_.placements;
        for (size_t k = 0; k < rows; ++k)
            effort_.settled += search_[k].settled.size();
        if (root == kNone)
            return false;

        // Chain = root plus the root-side half of each connection path;
        // the neighbor-side half is donated to the neighbor's chain
        // (CMR's path splitting).  Without the split, freshly placed
        // vertices absorb entire paths and balloon while their
        // neighbors stay as walled-in singletons.
        std::vector<uint32_t> chain{root};
        for (size_t k = 0; k < rows; ++k) {
            // The root is reachable, so kNone marks the neighbor's chain.
            const uint32_t *pred = &pred_[k * n_];
            if (pred[root] == kNone)
                continue;
            std::vector<uint32_t> path; // root side first
            for (uint32_t q = pred[root]; pred[q] != kNone; q = pred[q])
                path.push_back(q);
            size_t keep = (path.size() + 1) / 2;
            for (size_t i = 0; i < keep; ++i)
                chain.push_back(path[i]);
            for (size_t i = keep; i < path.size(); ++i)
                addToChain(embedded_nbrs[k], path[i]);
        }
        install(v, std::move(chain));
        return true;
    }

    std::optional<Embedding>
    tryOnce(Rng &rng)
    {
        for (auto &c : chains_)
            c.clear();
        std::fill(usage_.begin(), usage_.end(), 0);
        use_hist_.assign(1, n_);
        dirty_.clear();
        pow_round_ = UINT32_MAX;

        std::vector<uint32_t> order(chains_.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        // Place high-degree vertices first; random tie-break.
        rng.shuffle(order);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return nbrs_[a].size() > nbrs_[b].size();
                         });

        std::optional<Embedding> feasible;
        size_t feasible_qubits = SIZE_MAX;
        uint32_t stale = 0;
        size_t best_overfull = SIZE_MAX;
        uint32_t no_progress = 0;

        for (round_ = 0; round_ < params_.rounds; ++round_) {
            // A lower-indexed try already embedded: this result could
            // never win, so stop paying for it.
            if (token_ && token_->cancelled(index_))
                return std::nullopt;
            noise_ = 0.2 / (1.0 + round_);

            // Early rounds re-place everything.  Later rounds repair
            // minimally: only the chains sitting on overfull qubits,
            // so converged structure stays put; the logical
            // neighborhood joins in only after repeated non-progress
            // (widening the search), and a full re-place round fires
            // as a last resort.
            std::vector<uint32_t> to_place;
            if (round_ < 3 || feasible || no_progress >= 8) {
                to_place = order;
                if (no_progress >= 8)
                    no_progress = 0;
            } else {
                std::vector<bool> hit(chains_.size(), false);
                for (uint32_t v = 0; v < chains_.size(); ++v)
                    for (uint32_t q : chains_[v])
                        if (usage_[q] > 1)
                            hit[v] = true;
                bool widen = no_progress >= 4;
                for (uint32_t v = 0; v < chains_.size(); ++v) {
                    if (!hit[v])
                        continue;
                    to_place.push_back(v);
                    if (widen)
                        for (uint32_t u : nbrs_[v])
                            to_place.push_back(u);
                }
                std::sort(to_place.begin(), to_place.end());
                to_place.erase(
                    std::unique(to_place.begin(), to_place.end()),
                    to_place.end());
                if (to_place.empty())
                    to_place = order;
            }
            rng.shuffle(to_place);

            for (uint32_t v : to_place)
                if (!placeVertex(v, rng))
                    return feasible;

            ++effort_.rounds;
            const uint32_t max_use = maxUse();
            const size_t overfull =
                n_ - use_hist_[0] - (max_use >= 1 ? use_hist_[1] : 0);
            if (stats::Registry::global().enabled())
                stats::record("embed.minorminer.overfull",
                              static_cast<double>(overfull));
            size_t total = 0;
            for (const auto &c : chains_)
                total += c.size();

            if (overfull < best_overfull) {
                best_overfull = overfull;
                no_progress = 0;
            } else {
                ++no_progress;
            }

            if (max_use <= 1) {
                if (total < feasible_qubits) {
                    feasible_qubits = total;
                    Embedding emb;
                    emb.chains = chains_;
                    feasible = std::move(emb);
                    stale = 0;
                } else {
                    ++stale;
                }
                // A couple of non-improving feasible rounds: stop.
                if (stale >= 2)
                    break;
            }
        }
        return feasible;
    }
};

} // namespace

std::optional<Embedding>
findEmbedding(const std::vector<std::pair<uint32_t, uint32_t>>
                  &logical_edges,
              size_t num_logical, const chimera::HardwareGraph &hw,
              const EmbedParams &params)
{
    // Weights must stay >= 1 (see refreshWeights and shortestPaths).
    const double base = params.overuse_base;
    if (base != 0.0 && !(std::isfinite(base) && base >= 1.0))
        fatal("findEmbedding: overuse_base must be 0 (auto) or a finite "
              "value >= 1, got %g",
              base);
    if (num_logical == 0)
        return Embedding{};
    stats::ScopedTimer timer("embed.minorminer.time");

    // Independent restarts race across workers; each try already runs
    // its own qubit-minimization rounds, so take the first success
    // rather than paying for every restart.  The lowest-indexed
    // success wins — exactly the try the sequential loop would have
    // returned — so the embedding is thread-count invariant.
    const uint32_t tries = std::max<uint32_t>(1, params.tries);
    std::vector<std::optional<Embedding>> results(tries);
    size_t winner = exec::firstSuccess(
        tries, params.threads,
        [&](size_t t, const exec::CancelToken &token) {
            Embedder e(logical_edges, num_logical, hw, params);
            results[t] =
                e.attempt(Rng::streamAt(params.seed, t), token, t);
            return results[t].has_value();
        });
    std::optional<Embedding> emb;
    if (winner != exec::CancelToken::kNone)
        emb = std::move(results[winner]);
    if (emb) {
        std::string err;
        if (!verifyEmbedding(*emb, logical_edges, hw, &err))
            panic("embedder produced an invalid embedding: %s",
                  err.c_str());
        if (stats::Registry::global().enabled()) {
            for (const auto &chain : emb->chains)
                stats::record("embed.minorminer.chain_len",
                              static_cast<double>(chain.size()));
            stats::gauge("embed.minorminer.logical_vars",
                         emb->numLogical());
            stats::gauge("embed.minorminer.physical_qubits",
                         emb->totalQubits());
            stats::gauge("embed.minorminer.max_chain_len",
                         emb->maxChainLength());
        }
    } else {
        stats::count("embed.minorminer.failures");
    }
    return emb;
}

} // namespace qac::embed
