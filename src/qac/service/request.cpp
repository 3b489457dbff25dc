#include "qac/service/request.h"

#include <utility>

#include "qac/artifact/serial.h"
#include "qac/core/program.h"
#include "qac/telemetry/manifest.h"
#include "qac/util/strings.h"

namespace qac::service {

bool
SampleResult::hasValid() const
{
    for (const auto &c : candidates)
        if (c.valid)
            return true;
    return false;
}

double
SampleResult::validFraction() const
{
    if (total_reads == 0)
        return 0.0;
    uint64_t hits = 0;
    for (const auto &c : candidates)
        if (c.valid)
            hits += c.occurrences;
    return static_cast<double>(hits) /
        static_cast<double>(total_reads);
}

std::vector<const SampleResult::Candidate *>
SampleResult::validCandidates() const
{
    std::vector<const Candidate *> out;
    for (const auto &c : candidates)
        if (c.valid)
            out.push_back(&c);
    return out;
}

SampleResult
runLocal(const core::Executable &exe, const SampleRequest &req)
{
    core::Executable::RunResult rr = exe.run(req);

    SampleResult res;
    res.request_id = req.request_id;
    const auto &stats = exe.compiled().stats;
    res.logical_vars = stats.logical_vars;
    res.logical_terms = stats.logical_terms;
    res.embedded = exe.compiled().embedded.has_value();
    res.total_reads = rr.total_reads;
    res.vars_sampled = rr.vars_sampled;
    res.vars_fixed = rr.vars_fixed;
    res.candidates.reserve(rr.candidates.size());
    for (auto &c : rr.candidates) {
        SampleResult::Candidate out;
        out.values = std::move(c.values);
        out.energy = c.energy;
        out.occurrences = c.occurrences;
        out.valid = c.valid;
        out.chain_breaks = c.chain_breaks;
        out.model_line = std::move(c.model_line);
        out.clauses_satisfied = c.clauses_satisfied;
        out.clauses_total = c.clauses_total;
        out.weight_violated = c.weight_violated;
        res.candidates.push_back(std::move(out));
    }

    // Per-request provenance (PR 5's manifest), rendered without the
    // thread count: scheduling must never show up in result bytes.
    telemetry::Manifest manifest = telemetry::Manifest::make("service");
    manifest.qo_digest = req.object_digest;
    manifest.seed = req.common.seed;
    manifest.param("solver", req.solver);
    manifest.param("reads", uint64_t{req.common.num_reads});
    manifest.param("sweeps", uint64_t{req.sweeps});
    manifest.param("request_id", uint64_t{req.request_id});
    manifest.param("physical", uint64_t{req.use_physical ? 1u : 0u});
    manifest.param("reduce", uint64_t{req.reduce ? 1u : 0u});
    if (!req.pins.empty())
        manifest.param("pins", join(req.pins, "; "));
    res.manifest_json = manifest.block(false);
    return res;
}

// ------------------------------------------------------------ codecs

std::string
serializeRequest(const SampleRequest &req)
{
    artifact::Writer w;
    w.str(req.object_digest);
    w.u64(req.pins.size());
    for (const auto &pin : req.pins)
        w.str(pin);
    w.str(req.solver);
    w.u32(req.common.num_reads);
    w.u64(req.common.seed);
    w.u32(req.common.threads);
    w.u32(req.sweeps);
    w.u8(req.use_physical ? 1 : 0);
    w.u8(req.reduce ? 1 : 0);
    w.u64(req.request_id);
    // Reserved: three telemetry fields no server reads, written at
    // their old defaults so clients and servers of any age agree on
    // the layout.
    w.u8(0);
    w.u32(1);
    w.u32(256);
    return w.take();
}

bool
parseRequest(std::string_view bytes, SampleRequest &out,
             std::string *error)
{
    artifact::Reader r(bytes);
    SampleRequest req;
    req.object_digest = r.str();
    uint64_t npins = r.u64();
    if (npins > bytes.size()) { // cheap sanity bound before the loop
        if (error)
            *error = "malformed request: pin count";
        return false;
    }
    req.pins.reserve(static_cast<size_t>(npins));
    for (uint64_t i = 0; i < npins && r.ok(); ++i)
        req.pins.push_back(r.str());
    req.solver = r.str();
    req.common.num_reads = r.u32();
    req.common.seed = r.u64();
    req.common.threads = r.u32();
    req.sweeps = r.u32();
    req.use_physical = r.u8() != 0;
    req.reduce = r.u8() != 0;
    req.request_id = r.u64();
    // The three reserved telemetry fields: read and ignored.
    r.u8();
    r.u32();
    r.u32();
    // Older clients append one byte that chose the SA kernel path;
    // SA now picks its path from the read count, so it is ignored.
    if (r.remaining() == 1)
        r.u8();
    if (!r.ok() || r.remaining() != 0) {
        if (error)
            *error = "malformed request payload";
        return false;
    }
    out = std::move(req);
    return true;
}

std::string
serializeResult(const SampleResult &res)
{
    artifact::Writer w;
    w.u64(res.request_id);
    w.u64(res.logical_vars);
    w.u64(res.logical_terms);
    w.u8(res.embedded ? 1 : 0);
    w.u64(res.total_reads);
    w.u64(res.vars_sampled);
    w.u64(res.vars_fixed);
    w.u64(res.candidates.size());
    for (const auto &c : res.candidates) {
        // std::map iterates sorted, so the emission is canonical.
        w.u64(c.values.size());
        for (const auto &[sym, value] : c.values) {
            w.str(sym);
            w.u8(value ? 1 : 0);
        }
        w.f64(c.energy);
        w.u32(c.occurrences);
        w.u8(c.valid ? 1 : 0);
        w.u64(c.chain_breaks);
        // Decode block (PR 9): empty/zero outside DIMACS runs.
        w.str(c.model_line);
        w.u64(c.clauses_satisfied);
        w.u64(c.clauses_total);
        w.f64(c.weight_violated);
    }
    w.str(res.manifest_json);
    return w.take();
}

bool
parseResult(std::string_view bytes, SampleResult &out,
            std::string *error)
{
    artifact::Reader r(bytes);
    SampleResult res;
    res.request_id = r.u64();
    res.logical_vars = r.u64();
    res.logical_terms = r.u64();
    res.embedded = r.u8() != 0;
    res.total_reads = r.u64();
    res.vars_sampled = r.u64();
    res.vars_fixed = r.u64();
    uint64_t ncand = r.u64();
    if (ncand > bytes.size()) {
        if (error)
            *error = "malformed result: candidate count";
        return false;
    }
    res.candidates.reserve(static_cast<size_t>(ncand));
    for (uint64_t i = 0; i < ncand && r.ok(); ++i) {
        SampleResult::Candidate c;
        uint64_t nvals = r.u64();
        if (nvals > bytes.size()) {
            if (error)
                *error = "malformed result: value count";
            return false;
        }
        for (uint64_t v = 0; v < nvals && r.ok(); ++v) {
            std::string sym = r.str();
            bool value = r.u8() != 0;
            c.values.emplace(std::move(sym), value);
        }
        c.energy = r.f64();
        c.occurrences = r.u32();
        c.valid = r.u8() != 0;
        c.chain_breaks = r.u64();
        c.model_line = r.str();
        c.clauses_satisfied = r.u64();
        c.clauses_total = r.u64();
        c.weight_violated = r.f64();
        res.candidates.push_back(std::move(c));
    }
    res.manifest_json = r.str();
    if (!r.ok() || r.remaining() != 0) {
        if (error)
            *error = "malformed result payload";
        return false;
    }
    out = std::move(res);
    return true;
}

// ------------------------------------------------------------ report

void
printObjectLine(std::FILE *out, const std::string &name,
                uint64_t vars, uint64_t terms, bool embedded)
{
    std::fprintf(out, "%s: %llu logical variables, %llu terms%s\n",
                 name.c_str(),
                 static_cast<unsigned long long>(vars),
                 static_cast<unsigned long long>(terms),
                 embedded ? " (embedded)" : "");
}

void
printReport(std::FILE *out, const SampleResult &res, int verbosity)
{
    if (verbosity <= 0)
        return;
    std::fprintf(out,
                 "reads: %llu, distinct candidates: %zu, valid "
                 "fraction: %.3f\n",
                 static_cast<unsigned long long>(res.total_reads),
                 res.candidates.size(), res.validFraction());
    size_t shown = 0;
    auto valid = res.validCandidates();
    for (const auto *c : valid) {
        std::fprintf(out, "solution (energy %.4f, %u reads):\n",
                     c->energy, c->occurrences);
        if (!c->model_line.empty()) {
            // DIMACS decode: the model line plus the satisfaction
            // account replaces the per-symbol dump.
            std::fprintf(out, "  %s\n", c->model_line.c_str());
            std::fprintf(out,
                         "  c satisfied %llu/%llu clauses, violated "
                         "weight %g\n",
                         static_cast<unsigned long long>(
                             c->clauses_satisfied),
                         static_cast<unsigned long long>(
                             c->clauses_total),
                         c->weight_violated);
        } else {
            for (const auto &[sym, value] : c->values)
                std::fprintf(out, "  %s = %d\n", sym.c_str(),
                             static_cast<int>(value));
        }
        if (++shown >= 3 && verbosity < 2) {
            std::fprintf(out, "  ... (%zu more valid solutions)\n",
                         valid.size() - shown);
            break;
        }
    }
}

} // namespace qac::service
