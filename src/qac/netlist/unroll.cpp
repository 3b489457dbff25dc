#include "qac/netlist/unroll.h"

#include <algorithm>
#include <map>

#include "qac/util/logging.h"

namespace qac::netlist {

namespace {

constexpr NetId kUnmapped = ~NetId{0};

/** "var[3]" -> ("var", 3); "flag" -> ("flag", 0). */
std::pair<std::string, size_t>
splitIndexedName(const std::string &name)
{
    size_t lb = name.rfind('[');
    if (lb == std::string::npos || name.back() != ']')
        return {name, 0};
    size_t idx = 0;
    for (size_t i = lb + 1; i + 1 < name.size(); ++i) {
        char c = name[i];
        if (c < '0' || c > '9')
            return {name, 0};
        idx = idx * 10 + static_cast<size_t>(c - '0');
    }
    return {name.substr(0, lb), idx};
}

} // namespace

Netlist
unrollSequential(const Netlist &nl, size_t steps, const UnrollOptions &opts)
{
    if (steps < 1)
        fatal("unrollSequential: steps must be >= 1");
    if (!nl.isSequential())
        return nl;

    // Collect flip-flops and group their bits into registers by the base
    // name of the Q net.
    struct Ff
    {
        NetId d;
        NetId q;
    };
    std::vector<Ff> ffs;
    for (const auto &g : nl.gates())
        if (cells::gateInfo(g.type).sequential)
            ffs.push_back({g.inputs[0], g.output});

    // base name -> (bit index -> Q net), for bus-shaped state ports.
    std::map<std::string, std::map<size_t, NetId>> regs;
    for (const auto &ff : ffs) {
        auto [base, idx] = splitIndexedName(nl.netName(ff.q));
        auto [it, inserted] = regs[base].emplace(idx, ff.q);
        if (!inserted)
            fatal("two flip-flops drive state bit %s[%zu]", base.c_str(),
                  idx);
        (void)it;
    }
    // Registers with non-contiguous indices degrade to per-bit ports.
    auto contiguous = [](const std::map<size_t, NetId> &bits) {
        size_t want = 0;
        for (const auto &[idx, net] : bits) {
            (void)net;
            if (idx != want++)
                return false;
        }
        return true;
    };

    Netlist out;
    out.setName(nl.name());
    const std::string &sep = opts.step_sep;

    // Initial-state input ports ("<reg>@0").
    std::map<NetId, NetId> init_net; // original Q net -> unrolled net
    for (const auto &[base, bits] : regs) {
        if (contiguous(bits)) {
            Port &p = out.addPort(base + sep + "0", PortDir::Input,
                                  bits.size());
            size_t k = 0;
            for (const auto &[idx, qnet] : bits) {
                (void)idx;
                init_net[qnet] = p.bits[k++];
            }
        } else {
            for (const auto &[idx, qnet] : bits) {
                Port &p = out.addPort(
                    format("%s[%zu]%s0", base.c_str(), idx, sep.c_str()),
                    PortDir::Input, 1);
                init_net[qnet] = p.bits[0];
            }
        }
    }

    std::vector<NetId> prev_map; // step t-1 mapping
    std::vector<NetId> cur_map(nl.numNets(), kUnmapped);

    for (size_t t = 0; t < steps; ++t) {
        std::fill(cur_map.begin(), cur_map.end(), kUnmapped);
        cur_map[kConst0] = kConst0;
        cur_map[kConst1] = kConst1;

        const std::string suffix = sep + format("%zu", t);

        // Per-step copies of the original input ports.
        for (const auto &p : nl.ports()) {
            if (p.dir != PortDir::Input)
                continue;
            Port &np = out.addPort(p.name + suffix, PortDir::Input,
                                   p.bits.size());
            for (size_t i = 0; i < p.bits.size(); ++i)
                cur_map[p.bits[i]] = np.bits[i];
        }

        // Flip-flop outputs: initial state at t=0, previous step's D
        // otherwise (the H_DFF chain of Section 4.3.3, realized by net
        // merging).
        for (const auto &ff : ffs)
            cur_map[ff.q] = (t == 0) ? init_net.at(ff.q)
                                     : prev_map[ff.d];

        // Fresh copies of every remaining referenced net.
        auto mapNet = [&](NetId n) {
            if (cur_map[n] == kUnmapped)
                cur_map[n] = out.newNet(nl.netName(n) + suffix);
            return cur_map[n];
        };

        for (const auto &g : nl.gates()) {
            if (cells::gateInfo(g.type).sequential)
                continue;
            std::vector<NetId> ins(g.inputs.size());
            for (size_t k = 0; k < g.inputs.size(); ++k)
                ins[k] = mapNet(g.inputs[k]);
            out.addGate(g.type, std::move(ins), mapNet(g.output));
        }

        // Per-step copies of the original output ports.
        for (const auto &p : nl.ports()) {
            if (p.dir != PortDir::Output)
                continue;
            std::vector<NetId> bits(p.bits.size());
            for (size_t i = 0; i < p.bits.size(); ++i)
                bits[i] = mapNet(p.bits[i]);
            out.addPortOver(p.name + suffix, PortDir::Output,
                            std::move(bits));
        }

        // Make D nets addressable by the next step even if no
        // combinational gate produced them (e.g. D wired to an input).
        for (const auto &ff : ffs)
            mapNet(ff.d);

        prev_map = cur_map;
    }

    // Final-state output ports ("<reg>@T").
    if (opts.expose_final_state) {
        const std::string suffix = sep + format("%zu", steps);
        for (const auto &[base, bits] : regs) {
            if (contiguous(bits)) {
                std::vector<NetId> port_bits;
                for (const auto &[idx, qnet] : bits) {
                    (void)idx;
                    NetId q = prev_map[qnet];
                    // Final state = D of the last step.
                    for (const auto &ff : ffs)
                        if (ff.q == qnet)
                            q = prev_map[ff.d];
                    port_bits.push_back(q);
                }
                out.addPortOver(base + suffix, PortDir::Output,
                                std::move(port_bits));
            } else {
                for (const auto &[idx, qnet] : bits) {
                    NetId q = prev_map[qnet];
                    for (const auto &ff : ffs)
                        if (ff.q == qnet)
                            q = prev_map[ff.d];
                    out.addPortOver(format("%s[%zu]%s", base.c_str(), idx,
                                           suffix.c_str()),
                                    PortDir::Output, {q});
                }
            }
        }
    }

    if (!opts.expose_initial_state) {
        // Tie initial state to 0 instead of exposing it.
        for (auto &p : out.ports()) {
            if (p.dir == PortDir::Input &&
                p.name.size() > sep.size() + 1 &&
                p.name.compare(p.name.size() - sep.size() - 1,
                               sep.size() + 1, sep + "0") == 0 &&
                nl.findPort(p.name.substr(
                    0, p.name.size() - sep.size() - 1)) == nullptr) {
                for (NetId &b : p.bits) {
                    out.replaceNet(b, kConst0);
                    b = kConst0;
                }
            }
        }
        std::erase_if(out.ports(), [&](const Port &p) {
            return p.dir == PortDir::Input &&
                   !p.bits.empty() && p.bits[0] == kConst0 &&
                   std::all_of(p.bits.begin(), p.bits.end(),
                               [](NetId b) { return b == kConst0; });
        });
    }

    // Drop input ports with no fanout (e.g. the clock).
    auto fan = out.fanoutCounts();
    std::erase_if(out.ports(), [&](const Port &p) {
        if (p.dir != PortDir::Input)
            return false;
        for (NetId b : p.bits)
            if (fan[b] != 0)
                return false;
        return true;
    });

    out.check();
    return out;
}

} // namespace qac::netlist
