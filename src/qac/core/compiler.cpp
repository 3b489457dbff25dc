#include "qac/core/compiler.h"

#include "qac/core/frontend.h"
#include "qac/sim/xlint.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"

namespace qac::core {

CompileResult
compile(const std::string &source, const CompileOptions &opts)
{
    stats::ScopedTimer total_timer("compile.total");
    if (opts.target == Target::Chimera &&
        opts.chimera_size > chimera::kMaxChimeraSize)
        fatal("chimera_size %u exceeds the largest supported Chimera "
              "graph, C%u",
              opts.chimera_size, chimera::kMaxChimeraSize);

    CompileResult res;
    res.stats.source_lines = countLines(source);

    // 1. The language-specific half: parse + lower via the registered
    // frontend (synthesis/EDIF for Verilog, penalty gadgets for
    // DIMACS).
    std::unique_ptr<Frontend> fe = makeFrontend(opts.frontend);
    res.frontend = fe->name();
    {
        FrontendOutput out = fe->parse(source, opts);
        res.netlist = std::move(out.netlist);
        res.edif_text = std::move(out.edif_text);
        res.qmasm_program = std::move(out.program);
        res.dimacs_decode = std::move(out.dimacs_decode);
        res.stats.qmasm_lines = out.qmasm_lines;
        res.stats.stdcell_lines = out.stdcell_lines;
    }
    res.stats.edif_lines =
        res.edif_text.empty() ? 0 : countLines(res.edif_text);

    // 1b. X-propagation lint (DESIGN.md §15): a net the simulator
    // cannot resolve even with every input driven and every flop reset
    // is underconstrained in the Hamiltonian too — its variable floats
    // and the ground state picks an arbitrary value.  Flag it now,
    // at compile time, instead of shipping a silently-wrong model.
    if (!res.netlist.ports().empty()) {
        stats::ScopedTimer t("compile.xlint");
        sim::xLint(res.netlist, /*warn_offenders=*/true);
    }

    // 2. Assembly to the logical Ising model.
    {
        stats::ScopedTimer t("compile.assemble");
        res.assembled = qmasm::assemble(res.qmasm_program, opts.assemble);
    }
    res.stats.gates = res.netlist.numGates();
    res.stats.logical_vars = res.assembled.model.numVars();
    res.stats.logical_terms = res.assembled.model.numTerms();

    // 3. Minor embedding for hardware targets (Section 4.4).  The
    // minorminer stage is memoized through the artifact cache: a warm
    // compile loads the chain map by content address and skips the
    // embedder (and its compile.embed timer) entirely.
    if (opts.target == Target::Chimera) {
        chimera::HardwareGraph hw =
            chimera::chimeraGraph(opts.chimera_size);

        artifact::Cache cache(opts.cache);
        auto edgesOf = [](const ising::IsingModel &m) {
            std::vector<std::pair<uint32_t, uint32_t>> edges;
            for (const auto &t : m.quadraticTerms())
                edges.emplace_back(t.i, t.j);
            return edges;
        };
        // Probe the cache first; on a miss run minorminer and persist
        // the outcome — including "unembeddable", so warm compiles
        // skip doomed attempts too.
        auto embedCached =
            [&](const ising::IsingModel &model,
                const std::vector<std::pair<uint32_t, uint32_t>> &edges)
            -> std::optional<embed::Embedding> {
            if (cache.enabled()) {
                uint64_t key =
                    artifact::embeddingCacheKey(model, hw, opts.embed);
                auto probe =
                    artifact::lookupEmbedding(cache, key, edges, hw);
                if (probe.hit) {
                    if (!probe.embeddable)
                        return std::nullopt;
                    return std::move(probe.embedding);
                }
                stats::ScopedTimer t("compile.embed");
                auto emb = embed::findEmbedding(edges, model.numVars(),
                                                hw, opts.embed);
                artifact::storeEmbedding(cache, key, emb);
                return emb;
            }
            stats::ScopedTimer t("compile.embed");
            return embed::findEmbedding(edges, model.numVars(), hw,
                                        opts.embed);
        };

        auto edges = edgesOf(res.assembled.model);
        auto emb = embedCached(res.assembled.model, edges);
        if (!emb && opts.assemble.merge_chains) {
            // High-fanout nets merge into hub variables whose degree
            // can defeat the embedding heuristic.  Fall back to
            // qmasm's unmerged-chain form: more logical variables,
            // but degree bounded by the cell arity, which embeds far
            // more easily.
            warn("embedding the merged model failed; retrying with "
                 "unmerged chains");
            stats::count("embed.unmerged_retries");
            qmasm::AssembleOptions unmerged = opts.assemble;
            unmerged.merge_chains = false;
            res.assembled = qmasm::assemble(res.qmasm_program, unmerged);
            res.stats.logical_vars = res.assembled.model.numVars();
            res.stats.logical_terms = res.assembled.model.numTerms();
            edges = edgesOf(res.assembled.model);
            emb = embedCached(res.assembled.model, edges);
        }
        if (!emb)
            fatal("could not embed %zu logical variables into C%u",
                  res.assembled.model.numVars(), opts.chimera_size);
        res.embedding = std::move(*emb);
        {
            stats::ScopedTimer t("compile.embed_model");
            res.embedded = embed::embedModel(res.assembled.model,
                                             *res.embedding, hw);
        }
        res.hardware = std::move(hw);
        res.stats.physical_qubits = res.embedded->numPhysicalQubits();
        res.stats.physical_terms = res.embedded->physical.numTerms();
        res.stats.max_chain_length = res.embedding->maxChainLength();
    }

    stats::gauge("compile.gates", res.stats.gates);
    stats::gauge("compile.logical_vars", res.stats.logical_vars);
    stats::gauge("compile.logical_terms", res.stats.logical_terms);
    if (res.embedded) {
        stats::gauge("compile.physical_qubits", res.stats.physical_qubits);
        stats::gauge("compile.physical_terms", res.stats.physical_terms);
        stats::gauge("compile.max_chain_length",
                     res.stats.max_chain_length);
    }
    return res;
}

} // namespace qac::core
