#include "qac/qmasm/edif2qmasm.h"

#include <map>

#include "qac/edif/reader.h"
#include "qac/qmasm/stdcell_lib.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"

namespace qac::qmasm {

namespace {

using netlist::NetId;

/**
 * Endpoint symbols per net plus the instance name of every gate.
 * This is the single home of the lowering's naming scheme: port-bit
 * symbols first (preferred chain anchors), then "$gN.<pin>" instance
 * pins with N counting non-BUF gates in netlist order.  BUF cells
 * contribute no pins (they lower to a bare chain) but both their nets
 * are forced to exist.
 */
struct EndpointMap
{
    std::map<NetId, std::vector<std::string>> by_net;
    std::vector<std::string> inst_names; ///< per gate; "" for BUF
};

EndpointMap
netEndpoints(const netlist::Netlist &nl)
{
    EndpointMap m;
    m.inst_names.resize(nl.numGates());
    for (const auto &p : nl.ports())
        for (size_t i = 0; i < p.bits.size(); ++i)
            m.by_net[p.bits[i]].push_back(portBitSymbol(p, i));
    size_t used = 0;
    for (size_t gi = 0; gi < nl.numGates(); ++gi) {
        const auto &g = nl.gates()[gi];
        const auto &info = cells::gateInfo(g.type);
        if (g.type == cells::GateType::BUF) {
            m.by_net[g.inputs[0]];
            m.by_net[g.output];
            continue;
        }
        std::string inst = format("$g%zu", used++);
        for (size_t k = 0; k < g.inputs.size(); ++k)
            m.by_net[g.inputs[k]].push_back(inst + "." +
                                            info.inputs[k]);
        m.by_net[g.output].push_back(inst + "." + info.output);
        m.inst_names[gi] = std::move(inst);
    }
    return m;
}

} // namespace

std::string
portBitSymbol(const netlist::Port &port, size_t bit)
{
    if (port.bits.size() == 1)
        return port.name;
    return format("%s[%zu]", port.name.c_str(), bit);
}

Program
netlistToQmasm(const netlist::Netlist &nl)
{
    stats::ScopedTimer timer("qmasm.edif2qmasm.time");
    Program prog;
    prog.macros = stdcellLibrary().macros;

    {
        Statement c;
        c.kind = Statement::Kind::Comment;
        c.text = "compiled from netlist '" + nl.name() +
                 "' by qac edif2qmasm";
        prog.statements.push_back(std::move(c));
    }

    // Endpoint symbols per net (shared with symbolNets so the naming
    // scheme the verification oracle joins on cannot drift).
    EndpointMap em = netEndpoints(nl);
    auto &endpoints = em.by_net;
    for (size_t gi = 0; gi < nl.numGates(); ++gi) {
        if (em.inst_names[gi].empty())
            continue; // BUF: a bare wire, chained below
        Statement st;
        st.kind = Statement::Kind::UseMacro;
        st.sym1 = cells::gateInfo(nl.gates()[gi].type).name;
        st.sym2 = em.inst_names[gi];
        prog.statements.push_back(std::move(st));
    }

    // Buffers: alias their input and output nets by making the nets
    // share a symbol list.  Simplest correct lowering: add an explicit
    // chain between one endpoint symbol (or the net name) of each side.
    auto net_anchor = [&](NetId n) -> std::string {
        auto &eps = endpoints[n];
        if (!eps.empty())
            return eps.front();
        return nl.netName(n);
    };
    for (const auto &g : nl.gates()) {
        if (g.type != cells::GateType::BUF)
            continue;
        Statement st;
        st.kind = Statement::Kind::Chain;
        st.sym1 = net_anchor(g.output);
        st.sym2 = net_anchor(g.inputs[0]);
        prog.statements.push_back(std::move(st));
    }

    // Nets: constants become pins (Section 4.3.4), everything else a
    // chain of "equal value" couplings (Section 4.3.1).
    for (auto &[net, eps] : endpoints) {
        if (net == netlist::kConst0 || net == netlist::kConst1) {
            for (const auto &sym : eps) {
                Statement st;
                st.kind = Statement::Kind::Pin;
                st.sym1 = sym;
                st.pin_value = (net == netlist::kConst1);
                prog.statements.push_back(std::move(st));
            }
            continue;
        }
        if (eps.size() < 2) {
            // A dangling port bit (e.g. an unused input) must still
            // exist as a free variable so results can report it: emit
            // a zero-weight declaration.
            if (eps.size() == 1) {
                Statement st;
                st.kind = Statement::Kind::Weight;
                st.sym1 = eps[0];
                st.value = 0.0;
                prog.statements.push_back(std::move(st));
            }
            continue;
        }
        // Star pattern anchored at the first (preferably port) symbol.
        for (size_t k = 1; k < eps.size(); ++k) {
            Statement st;
            st.kind = Statement::Kind::Chain;
            st.sym1 = eps[0];
            st.sym2 = eps[k];
            prog.statements.push_back(std::move(st));
        }
    }

    return prog;
}

std::map<std::string, netlist::NetId>
symbolNets(const netlist::Netlist &nl)
{
    std::map<std::string, NetId> out;
    EndpointMap em = netEndpoints(nl);
    for (const auto &[net, syms] : em.by_net)
        for (const auto &sym : syms)
            out.emplace(sym, net);
    return out;
}

Program
edifToQmasm(const std::string &edif_text)
{
    netlist::Netlist nl = edif::readEdif(edif_text);
    return netlistToQmasm(nl);
}

} // namespace qac::qmasm
