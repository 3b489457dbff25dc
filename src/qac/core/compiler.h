/**
 * @file
 * The end-to-end compiler driver (paper, Section 4): source language
 * -> lowered logical model -> (optionally) minor-embedded physical
 * Ising model for a Chimera-topology annealer.
 *
 * The language-specific half of the pipeline lives behind the
 * core::Frontend registry (frontend.h): Verilog runs synthesis ->
 * optimization -> tech mapping -> EDIF -> QMASM, DIMACS runs clause
 * parsing -> penalty-gadget lowering.  Everything below the lowered
 * QMASM program — assembly, embedding, caching, execution — is shared
 * by every frontend, so any source language compiles to the same .qo
 * artifacts and is served by qmad unchanged.
 *
 * Every intermediate artifact is retained on the result so the paper's
 * Section 6.1 static-properties experiment (lines of source / EDIF /
 * QMASM, logical variables, physical qubits, term counts) reads
 * directly off one compile() call.
 */

#ifndef QAC_CORE_COMPILER_H
#define QAC_CORE_COMPILER_H

#include <optional>
#include <string>
#include <variant>

#include "qac/artifact/cache.h"
#include "qac/chimera/chimera.h"
#include "qac/dimacs/lower.h"
#include "qac/embed/embed_model.h"
#include "qac/embed/minorminer.h"
#include "qac/netlist/netlist.h"
#include "qac/qmasm/assemble.h"
#include "qac/verilog/frontend.h"

namespace qac::core {

/** Where the compiled model should be able to run. */
enum class Target {
    Logical, ///< all-to-all couplings: stop after assembly
    Chimera, ///< minor-embed onto a Chimera graph (the D-Wave 2000Q)
};

/**
 * Compile options: a frontend key plus that frontend's options
 * (the language-specific half), then the frontend-neutral pipeline
 * options shared by every source language.
 */
struct CompileOptions
{
    /** Registered frontend key ("verilog", "dimacs", ...). */
    std::string frontend = "verilog";

    /** Options for the selected frontend.  Use verilogOpts() /
     *  dimacsOpts() instead of touching the variant directly: the
     *  mutable accessors also select the matching frontend key. */
    std::variant<verilog::FrontendOptions, dimacs::FrontendOptions>
        frontend_opts;

    verilog::FrontendOptions &
    verilogOpts()
    {
        frontend = "verilog";
        if (!std::holds_alternative<verilog::FrontendOptions>(
                frontend_opts))
            frontend_opts = verilog::FrontendOptions{};
        return std::get<verilog::FrontendOptions>(frontend_opts);
    }

    dimacs::FrontendOptions &
    dimacsOpts()
    {
        frontend = "dimacs";
        if (!std::holds_alternative<dimacs::FrontendOptions>(
                frontend_opts))
            frontend_opts = dimacs::FrontendOptions{};
        return std::get<dimacs::FrontendOptions>(frontend_opts);
    }

    const verilog::FrontendOptions &
    verilogOpts() const
    {
        static const verilog::FrontendOptions defaults;
        auto *p = std::get_if<verilog::FrontendOptions>(&frontend_opts);
        return p ? *p : defaults;
    }

    const dimacs::FrontendOptions &
    dimacsOpts() const
    {
        static const dimacs::FrontendOptions defaults;
        auto *p = std::get_if<dimacs::FrontendOptions>(&frontend_opts);
        return p ? *p : defaults;
    }

    // ---- frontend-neutral options ----

    qmasm::AssembleOptions assemble;

    Target target = Target::Logical;
    uint32_t chimera_size = 16;      ///< C_m; 16 = D-Wave 2000Q
    embed::EmbedParams embed;

    /** Read by nothing: every compile stage is single-threaded.  Kept
     *  only so the perfbench harness, which sets it, still builds. */
    uint32_t threads = 0;

    /**
     * Persistent embedding cache (artifact subsystem): Chimera-target
     * compiles memoize the minorminer stage keyed by the logical
     * model, hardware graph, and embedder parameters.  A cache hit is
     * bitwise-identical to a recompute; corrupt or mismatched entries
     * fall back to recompute.  Set cache.enabled = false for a fully
     * hermetic compile.
     */
    artifact::CacheOptions cache;
};

/** All artifacts of one compilation. */
struct CompileResult
{
    std::string frontend = "verilog"; ///< frontend that produced this

    netlist::Netlist netlist;        ///< empty for netlist-less frontends
    std::string edif_text;           ///< "" for netlist-less frontends
    qmasm::Program qmasm_program;
    qmasm::Assembled assembled;      ///< logical model + symbol table

    /** DIMACS decode metadata (variable<->spin map, clause list);
     *  travels through .qo so executors can report model lines. */
    std::optional<dimacs::DecodeInfo> dimacs_decode;

    /** Populated for Target::Chimera. */
    std::optional<chimera::HardwareGraph> hardware;
    std::optional<embed::Embedding> embedding;
    std::optional<embed::EmbeddedModel> embedded;

    struct Stats
    {
        size_t source_lines = 0;     ///< lines of frontend source
        size_t edif_lines = 0;
        size_t qmasm_lines = 0;      ///< main program, stdcell excluded
        size_t stdcell_lines = 0;
        size_t gates = 0;
        size_t logical_vars = 0;
        size_t logical_terms = 0;
        size_t physical_qubits = 0;  ///< 0 for Target::Logical
        size_t physical_terms = 0;
        size_t max_chain_length = 0;
    };
    Stats stats;
};

/**
 * Compile source text through the full pipeline using the frontend
 * named by opts.frontend.  Fatal (UnknownFrontendError) when no such
 * frontend is registered.
 */
CompileResult compile(const std::string &source,
                      const CompileOptions &opts);

} // namespace qac::core

#endif // QAC_CORE_COMPILER_H
