#include "qac/artifact/qo.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "qac/artifact/serial.h"
#include "qac/chimera/chimera.h"
#include "qac/edif/reader.h"
#include "qac/util/hash.h"
#include "qac/util/logging.h"

namespace qac::artifact {

namespace {

constexpr char kQoMagic[4] = {'Q', 'A', 'C', 'O'};

/**
 * Canonicalize a coefficient for serialization: -0.0 becomes +0.0 so
 * reloading through IsingModel's additive mutators (0.0 + v) cannot
 * change the stored bit pattern on the next serialize.
 */
double
canonZero(double v)
{
    return v == 0.0 ? 0.0 : v;
}

// ---------------------------------------------------------------- model

void
writeModel(Writer &w, const ising::IsingModel &m)
{
    w.u64(m.numVars());
    for (size_t i = 0; i < m.numVars(); ++i)
        w.f64(canonZero(m.linear(static_cast<uint32_t>(i))));
    auto terms = m.sortedQuadraticTerms();
    w.u64(terms.size());
    for (const auto &t : terms) {
        w.u32(t.i);
        w.u32(t.j);
        w.f64(canonZero(t.value));
    }
}

ising::IsingModel
readModel(Reader &r)
{
    uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining()) // each h takes >= 8 bytes
        return ising::IsingModel();
    ising::IsingModel m(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        double v = r.f64();
        if (v != 0.0)
            m.addLinear(static_cast<uint32_t>(i), v);
    }
    uint64_t terms = r.u64();
    for (uint64_t k = 0; k < terms && r.ok(); ++k) {
        uint32_t i = r.u32();
        uint32_t j = r.u32();
        double v = r.f64();
        if (i == j || i >= n || j >= n) {
            // Structurally invalid; poison the reader so the caller
            // reports a malformed payload instead of crashing.
            r.fail();
            break;
        }
        m.addQuadratic(i, j, v);
    }
    return m;
}

// -------------------------------------------------------------- program

void
writeStatement(Writer &w, const qmasm::Statement &s)
{
    w.u8(static_cast<uint8_t>(s.kind));
    w.str(s.sym1);
    w.str(s.sym2);
    w.f64(s.value);
    w.u8(s.pin_value ? 1 : 0);
    w.str(s.text);
    w.u64(s.line);
}

qmasm::Statement
readStatement(Reader &r)
{
    qmasm::Statement s;
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(qmasm::Statement::Kind::Comment)) {
        r.fail();
        return s;
    }
    s.kind = static_cast<qmasm::Statement::Kind>(kind);
    s.sym1 = r.str();
    s.sym2 = r.str();
    s.value = r.f64();
    s.pin_value = r.u8() != 0;
    s.text = r.str();
    s.line = static_cast<size_t>(r.u64());
    return s;
}

void
writeProgram(Writer &w, const qmasm::Program &p)
{
    w.u64(p.macros.size());
    for (const auto &m : p.macros) {
        w.str(m.name);
        w.u64(m.body.size());
        for (const auto &s : m.body)
            writeStatement(w, s);
    }
    w.u64(p.statements.size());
    for (const auto &s : p.statements)
        writeStatement(w, s);
}

qmasm::Program
readProgram(Reader &r)
{
    qmasm::Program p;
    uint64_t macros = r.u64();
    for (uint64_t i = 0; i < macros && r.ok(); ++i) {
        qmasm::Macro m;
        m.name = r.str();
        uint64_t body = r.u64();
        for (uint64_t k = 0; k < body && r.ok(); ++k)
            m.body.push_back(readStatement(r));
        p.macros.push_back(std::move(m));
    }
    uint64_t stmts = r.u64();
    for (uint64_t i = 0; i < stmts && r.ok(); ++i)
        p.statements.push_back(readStatement(r));
    return p;
}

// ------------------------------------------------------------ assembled

void
writeAssembled(Writer &w, const qmasm::Assembled &a)
{
    writeModel(w, a.model);
    w.u64(a.var_names.size());
    for (const auto &name : a.var_names)
        w.str(name);
    // Canonical order: the unordered map is emitted sorted by symbol.
    std::map<std::string, uint32_t> sorted(a.sym_to_var.begin(),
                                           a.sym_to_var.end());
    w.u64(sorted.size());
    for (const auto &[sym, var] : sorted) {
        w.str(sym);
        w.u32(var);
    }
    w.u64(a.pins.size());
    for (const auto &[sym, value] : a.pins) {
        w.str(sym);
        w.u8(value ? 1 : 0);
    }
    w.u64(a.asserts.size());
    for (const auto &expr : a.asserts)
        w.str(expr);
    w.f64(a.chain_strength_used);
    w.f64(a.pin_strength_used);
    w.f64(a.energy_offset);
}

qmasm::Assembled
readAssembled(Reader &r)
{
    qmasm::Assembled a;
    a.model = readModel(r);
    uint64_t names = r.u64();
    for (uint64_t i = 0; i < names && r.ok(); ++i)
        a.var_names.push_back(r.str());
    uint64_t syms = r.u64();
    for (uint64_t i = 0; i < syms && r.ok(); ++i) {
        std::string sym = r.str();
        uint32_t var = r.u32();
        a.sym_to_var.emplace(std::move(sym), var);
    }
    uint64_t pins = r.u64();
    for (uint64_t i = 0; i < pins && r.ok(); ++i) {
        std::string sym = r.str();
        bool value = r.u8() != 0;
        a.pins.emplace_back(std::move(sym), value);
    }
    uint64_t asserts = r.u64();
    for (uint64_t i = 0; i < asserts && r.ok(); ++i)
        a.asserts.push_back(r.str());
    a.chain_strength_used = r.f64();
    a.pin_strength_used = r.f64();
    a.energy_offset = r.f64();
    return a;
}

// ----------------------------------------------------- hardware / chains

void
writeHardware(Writer &w, const chimera::HardwareGraph &hw)
{
    w.u64(hw.numNodes());
    std::vector<uint32_t> inactive;
    for (size_t u = 0; u < hw.numNodes(); ++u)
        if (!hw.isActive(static_cast<uint32_t>(u)))
            inactive.push_back(static_cast<uint32_t>(u));
    w.u64(inactive.size());
    for (uint32_t u : inactive)
        w.u32(u);
    // All edges (active or not), sorted: canonical regardless of the
    // insertion order the graph was built with.
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (size_t u = 0; u < hw.numNodes(); ++u)
        for (uint32_t v : hw.neighbors(static_cast<uint32_t>(u)))
            if (v > u)
                edges.emplace_back(static_cast<uint32_t>(u), v);
    std::sort(edges.begin(), edges.end());
    w.u64(edges.size());
    for (const auto &[u, v] : edges) {
        w.u32(u);
        w.u32(v);
    }
}

chimera::HardwareGraph
readHardware(Reader &r)
{
    // Bound the node count before allocating a graph for it: no
    // Chimera size QAC builds has more than kMaxChimeraQubits qubits.
    uint64_t nodes = r.u64();
    if (nodes > chimera::kMaxChimeraQubits)
        r.fail();
    if (!r.ok())
        return chimera::HardwareGraph();
    chimera::HardwareGraph hw(static_cast<size_t>(nodes));
    uint64_t inactive = r.u64();
    for (uint64_t i = 0; i < inactive && r.ok(); ++i) {
        uint32_t u = r.u32();
        if (u < nodes)
            hw.deactivate(u);
    }
    uint64_t edges = r.u64();
    for (uint64_t i = 0; i < edges && r.ok(); ++i) {
        uint32_t u = r.u32();
        uint32_t v = r.u32();
        if (u < nodes && v < nodes && u != v)
            hw.addEdge(u, v);
    }
    return hw;
}

void
writeChains(Writer &w, const std::vector<std::vector<uint32_t>> &chains)
{
    w.u64(chains.size());
    for (const auto &chain : chains) {
        w.u64(chain.size());
        for (uint32_t q : chain)
            w.u32(q);
    }
}

std::vector<std::vector<uint32_t>>
readChains(Reader &r)
{
    std::vector<std::vector<uint32_t>> chains;
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        uint64_t len = r.u64();
        if (len > r.remaining() / 4) {
            r.fail();
            break;
        }
        std::vector<uint32_t> chain;
        chain.reserve(static_cast<size_t>(len));
        for (uint64_t k = 0; k < len && r.ok(); ++k)
            chain.push_back(r.u32());
        chains.push_back(std::move(chain));
    }
    return chains;
}

void
writeEmbedded(Writer &w, const embed::EmbeddedModel &em)
{
    writeModel(w, em.physical);
    w.u64(em.phys_qubits.size());
    for (uint32_t q : em.phys_qubits)
        w.u32(q);
    writeChains(w, em.dense_chains);
    writeChains(w, em.embedding.chains);
    w.f64(em.chain_strength);
    w.f64(em.scale_factor);
}

embed::EmbeddedModel
readEmbedded(Reader &r)
{
    embed::EmbeddedModel em;
    em.physical = readModel(r);
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i)
        em.phys_qubits.push_back(r.u32());
    em.dense_chains = readChains(r);
    em.embedding.chains = readChains(r);
    em.chain_strength = r.f64();
    em.scale_factor = r.f64();
    return em;
}

// --------------------------------------------------------- dimacs decode

void
writeDecode(Writer &w, const dimacs::DecodeInfo &d)
{
    w.u32(d.num_vars);
    w.u8(d.weighted ? 1 : 0);
    w.u64(d.top_weight);
    w.f64(d.hard_weight);
    w.f64(d.energy_offset);
    w.u32(d.num_ancillas);
    w.u32(d.shared_ancillas);
    w.u64(d.clauses.size());
    for (const auto &cl : d.clauses) {
        w.u64(cl.weight);
        w.u8(cl.hard ? 1 : 0);
        w.u64(cl.lits.size());
        for (int32_t lit : cl.lits)
            w.u32(static_cast<uint32_t>(lit)); // two's complement
    }
}

dimacs::DecodeInfo
readDecode(Reader &r)
{
    dimacs::DecodeInfo d;
    d.num_vars = r.u32();
    d.weighted = r.u8() != 0;
    d.top_weight = r.u64();
    d.hard_weight = r.f64();
    d.energy_offset = r.f64();
    d.num_ancillas = r.u32();
    d.shared_ancillas = r.u32();
    uint64_t nclauses = r.u64();
    for (uint64_t i = 0; i < nclauses && r.ok(); ++i) {
        dimacs::Clause cl;
        cl.weight = r.u64();
        cl.hard = r.u8() != 0;
        uint64_t nlits = r.u64();
        if (nlits > r.remaining() / 4) {
            r.fail();
            break;
        }
        cl.lits.reserve(static_cast<size_t>(nlits));
        for (uint64_t k = 0; k < nlits && r.ok(); ++k)
            cl.lits.push_back(static_cast<int32_t>(r.u32()));
        d.clauses.push_back(std::move(cl));
    }
    return d;
}

} // namespace

std::string
serializeQo(const core::CompileResult &result)
{
    Writer w;
    w.str(result.frontend);
    w.str(result.edif_text);
    writeProgram(w, result.qmasm_program);
    writeAssembled(w, result.assembled);
    w.u8(result.dimacs_decode ? 1 : 0);
    if (result.dimacs_decode)
        writeDecode(w, *result.dimacs_decode);
    w.u8(result.hardware ? 1 : 0);
    if (result.hardware)
        writeHardware(w, *result.hardware);
    w.u8(result.embedding ? 1 : 0);
    if (result.embedding)
        writeChains(w, result.embedding->chains);
    w.u8(result.embedded ? 1 : 0);
    if (result.embedded)
        writeEmbedded(w, *result.embedded);
    const auto &s = result.stats;
    for (size_t v : {s.source_lines, s.edif_lines, s.qmasm_lines,
                     s.stdcell_lines, s.gates, s.logical_vars,
                     s.logical_terms, s.physical_qubits,
                     s.physical_terms, s.max_chain_length})
        w.u64(v);
    return frame(kQoMagic, w.buffer());
}

std::optional<core::CompileResult>
deserializeQo(std::string_view bytes, std::string *error)
{
    auto payload = unframe(bytes, kQoMagic, error);
    if (!payload)
        return std::nullopt;

    core::CompileResult res;
    Reader r(*payload);
    res.frontend = r.str();
    res.edif_text = r.str();
    res.qmasm_program = readProgram(r);
    res.assembled = readAssembled(r);
    if (r.u8()) {
        res.dimacs_decode = readDecode(r);
    }
    if (r.u8()) {
        res.hardware = readHardware(r);
    }
    if (r.u8()) {
        embed::Embedding emb;
        emb.chains = readChains(r);
        res.embedding = std::move(emb);
    }
    if (r.u8()) {
        res.embedded = readEmbedded(r);
    }
    auto &s = res.stats;
    for (size_t *v : {&s.source_lines, &s.edif_lines, &s.qmasm_lines,
                      &s.stdcell_lines, &s.gates, &s.logical_vars,
                      &s.logical_terms, &s.physical_qubits,
                      &s.physical_terms, &s.max_chain_length})
        *v = static_cast<size_t>(r.u64());
    if (!r.ok() || r.remaining() != 0) {
        if (error)
            *error = "malformed payload";
        return std::nullopt;
    }

    // The netlist is not serialized: compile() materializes exactly the
    // netlist its EDIF text denotes (edif::denotedNetlist, equal to
    // readEdif of that text), so reading the stored text reproduces
    // the original.  Netlist-less frontends (DIMACS) store no EDIF and
    // keep an empty netlist.
    if (!res.edif_text.empty()) {
        try {
            res.netlist = edif::readEdif(res.edif_text);
        } catch (const FatalError &e) {
            if (error)
                *error = format("embedded EDIF does not parse: %s",
                                e.what());
            return std::nullopt;
        }
    }
    return res;
}

bool
writeQoFile(const std::string &path, const core::CompileResult &result,
            std::string *error)
{
    std::string bytes = serializeQo(result);
    std::string tmp =
        path + format(".tmp.%d", static_cast<int>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !out.write(bytes.data(),
                               static_cast<std::streamsize>(
                                   bytes.size()))) {
            if (error)
                *error = format("cannot write '%s'", tmp.c_str());
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (error)
            *error = format("cannot rename '%s' to '%s': %s",
                            tmp.c_str(), path.c_str(),
                            ec.message().c_str());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

std::optional<core::CompileResult>
readQoFile(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = format("cannot read '%s'", path.c_str());
        return std::nullopt;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    return deserializeQo(bytes, error);
}

std::string
qoDigestHex(std::string_view bytes)
{
    return util::hexDigest(util::fnv1a64(bytes));
}

std::string
qoFileDigestHex(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::stringstream ss;
    ss << in.rdbuf();
    return qoDigestHex(ss.str());
}

} // namespace qac::artifact
