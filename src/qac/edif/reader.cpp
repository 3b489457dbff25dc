#include "qac/edif/reader.h"

#include <map>
#include <set>

#include "qac/edif/lower.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/strings.h"

namespace qac::edif {

namespace {

using netlist::NetId;
using sexpr::Node;

/** Case-insensitive keyword comparison (EDIF keywords vary in case). */
bool
isKw(const std::string &head, const char *kw)
{
    return toLower(head) == toLower(kw);
}

/**
 * An EDIF "nameDef" is either a bare identifier or
 * (rename ident "original").  Returns (ident, display-name).
 */
std::pair<std::string, std::string>
readName(const Node &n)
{
    if (n.isAtom())
        return {n.text(), n.text()};
    if (n.isList() && isKw(n.head(), "rename") && n.size() >= 3)
        return {n[1].text(), n[2].text()};
    fatal("edif: malformed name definition");
}

/** Find the first child list whose head is @p kw. */
const Node *
childByHead(const Node &n, const char *kw)
{
    for (const auto &c : n.items())
        if (c.isList() && isKw(c.head(), kw))
            return &c;
    return nullptr;
}

using detail::Instance;
using detail::kNoNet;
using detail::PortDecl;

struct CellInfo
{
    std::string ident;
    std::string display;
    std::vector<PortDecl> ports;
    const Node *contents = nullptr;
};

struct Reader
{
    netlist::Netlist nl;
    std::map<std::string, CellInfo> cells; // ident -> info
    std::map<std::string, NetId> net_by_name;

    void
    readLibrary(const Node &lib)
    {
        for (const auto &item : lib.items()) {
            if (!item.isList() || !isKw(item.head(), "cell"))
                continue;
            CellInfo ci;
            auto [ident, display] = readName(item[1]);
            ci.ident = ident;
            ci.display = display;
            const Node *view = childByHead(item, "view");
            if (!view)
                fatal("edif: cell %s has no view", ident.c_str());
            const Node *iface = childByHead(*view, "interface");
            if (!iface)
                fatal("edif: cell %s has no interface", ident.c_str());
            for (const auto &p : iface->items()) {
                if (!p.isList() || !isKw(p.head(), "port"))
                    continue;
                PortDecl pi;
                auto [pid, pdisp] = readName(p[1]);
                pi.ident = pid;
                pi.display = pdisp;
                const Node *dir = childByHead(p, "direction");
                if (!dir || dir->size() < 2)
                    fatal("edif: port %s has no direction", pid.c_str());
                pi.is_input = isKw((*dir)[1].text(), "INPUT");
                ci.ports.push_back(std::move(pi));
            }
            ci.contents = childByHead(*view, "contents");
            cells[ci.ident] = std::move(ci);
        }
    }

    NetId
    netFor(const std::string &display_name)
    {
        auto it = net_by_name.find(display_name);
        if (it != net_by_name.end())
            return it->second;
        NetId id = nl.newNet(display_name);
        net_by_name.emplace(display_name, id);
        return id;
    }

    netlist::Netlist
    run(const Node &root)
    {
        if (!root.isList() || !isKw(root.head(), "edif"))
            fatal("edif: top-level expression is not (edif ...)");
        for (const auto &item : root.items())
            if (item.isList() && isKw(item.head(), "library"))
                readLibrary(item);

        // Locate the top cell via the (design ...) stanza, falling back
        // to the last declared cell with contents.
        std::string top_ident;
        if (const Node *design = childByHead(root, "design")) {
            const Node *cref = childByHead(*design, "cellRef");
            if (cref && cref->size() >= 2)
                top_ident = readName((*cref)[1]).first;
        }
        if (top_ident.empty()) {
            for (const auto &[ident, ci] : cells)
                if (ci.contents)
                    top_ident = ident;
        }
        auto top_it = cells.find(top_ident);
        if (top_it == cells.end() || !top_it->second.contents)
            fatal("edif: cannot find a top cell with contents");
        const CellInfo &top = top_it->second;

        nl.setName(top.display);
        return buildTop(top);
    }

    netlist::Netlist
    buildTop(const CellInfo &top)
    {
        // Pass 1: instances.
        struct Inst
        {
            const CellInfo *cell;
            // port ident -> net (filled by pass 2)
            std::map<std::string, NetId> conns;
        };
        std::map<std::string, Inst> insts;
        for (const auto &item : top.contents->items()) {
            if (!item.isList() || !isKw(item.head(), "instance"))
                continue;
            auto [iname, idisp] = readName(item[1]);
            (void)idisp;
            const Node *vref = childByHead(item, "viewRef");
            const Node *cref = vref ? childByHead(*vref, "cellRef")
                                    : childByHead(item, "cellRef");
            if (!cref || cref->size() < 2)
                fatal("edif: instance %s has no cellRef", iname.c_str());
            std::string cell_ident = readName((*cref)[1]).first;
            auto cit = cells.find(cell_ident);
            if (cit == cells.end())
                fatal("edif: instance %s references unknown cell %s",
                      iname.c_str(), cell_ident.c_str());
            insts[iname] = Inst{&cit->second, {}};
        }

        std::set<std::string> top_ports; // idents
        for (const auto &p : top.ports)
            top_ports.insert(p.ident);
        std::map<std::string, NetId> top_port_net;

        // Pass 2: nets.
        for (const auto &item : top.contents->items()) {
            if (!item.isList() || !isKw(item.head(), "net"))
                continue;
            auto [nid, ndisp] = readName(item[1]);
            (void)nid;
            NetId net = netFor(ndisp);
            const Node *joined = childByHead(item, "joined");
            if (!joined)
                continue;
            for (const auto &ref : joined->items()) {
                if (!ref.isList() || !isKw(ref.head(), "portRef"))
                    continue;
                std::string port_ident = readName(ref[1]).first;
                const Node *iref = childByHead(ref, "instanceRef");
                if (iref) {
                    std::string inst = readName((*iref)[1]).first;
                    auto iit = insts.find(inst);
                    if (iit == insts.end())
                        fatal("edif: net %s references unknown instance "
                              "%s",
                              ndisp.c_str(), inst.c_str());
                    iit->second.conns[port_ident] = net;
                } else {
                    if (!top_ports.count(port_ident))
                        fatal("edif: net %s references unknown top port "
                              "%s",
                              ndisp.c_str(), port_ident.c_str());
                    top_port_net[port_ident] = net;
                }
            }
        }

        // Resolve each instance's pins in its cell's pin order.
        std::vector<Instance> resolved;
        resolved.reserve(insts.size());
        for (auto &[iname, inst] : insts) {
            auto pin = [&](const std::string &name) {
                auto it = inst.conns.find(name);
                return it == inst.conns.end() ? kNoNet : it->second;
            };
            Instance r;
            r.name = iname;
            const std::string &cell = inst.cell->ident;
            if (cell == "GND" || cell == "VCC") {
                r.kind = cell == "GND" ? Instance::Kind::Gnd
                                       : Instance::Kind::Vcc;
                r.pins = {pin("Y")};
            } else {
                r.type = cells::gateTypeByName(cell);
                const auto &info = cells::gateInfo(r.type);
                for (const auto &in : info.inputs)
                    r.pins.push_back(pin(in));
                r.pins.push_back(pin(info.output));
            }
            resolved.push_back(std::move(r));
        }
        return detail::lowerTop(std::move(nl), resolved, top.ports,
                                top_port_net);
    }
};

} // namespace

namespace detail {

netlist::Netlist
lowerTop(netlist::Netlist nl, std::vector<Instance> &insts,
         const std::vector<PortDecl> &ports,
         std::map<std::string, NetId> &port_nets)
{
    // Rewrite all recorded uses of @p from to the constant net @p to.
    auto remap = [&](NetId from, NetId to) {
        for (auto &inst : insts)
            for (NetId &net : inst.pins)
                if (net == from)
                    net = to;
        for (auto &[ident, net] : port_nets)
            if (net == from)
                net = to;
    };

    // Materialize constants, then gates.  A file can break what
    // Netlist::check() asserts of the netlists the compiler builds, so
    // the driver rules are checked here as input errors.
    std::vector<const Instance *> driver(nl.numNets(), nullptr);
    for (const auto &inst : insts) {
        if (inst.kind != Instance::Kind::Gate) {
            if (inst.pins[0] != kNoNet)
                remap(inst.pins[0], inst.kind == Instance::Kind::Gnd
                                        ? netlist::kConst0
                                        : netlist::kConst1);
            continue;
        }
        const auto &info = cells::gateInfo(inst.type);
        for (size_t k = 0; k < info.inputs.size(); ++k)
            if (inst.pins[k] == kNoNet)
                fatal("edif: instance %s input %s unconnected",
                      inst.name.c_str(), info.inputs[k].c_str());
        const NetId out = inst.pins.back();
        if (out == kNoNet)
            fatal("edif: instance %s output unconnected",
                  inst.name.c_str());
        if (out == netlist::kConst0 || out == netlist::kConst1)
            fatal("edif: instance %s drives a GND/VCC net",
                  inst.name.c_str());
        if (driver[out])
            fatal("edif: net %s driven by instances %s and %s",
                  nl.netName(out).c_str(), driver[out]->name.c_str(),
                  inst.name.c_str());
        driver[out] = &inst;
        nl.addGate(inst.type,
                   std::vector<NetId>(inst.pins.begin(),
                                      inst.pins.end() - 1),
                   inst.pins.back());
    }

    // Group top port bits into buses by display name "base[i]".
    struct BusBit
    {
        size_t index;
        NetId net;
    };
    std::map<std::string, std::vector<BusBit>> buses;
    std::vector<std::pair<std::string, bool>> scalar_order;
    for (const auto &p : ports) {
        auto nit = port_nets.find(p.ident);
        NetId net = (nit != port_nets.end()) ? nit->second
                                             : nl.newNet(p.display);
        std::string base = p.display;
        size_t idx = 0;
        size_t lb = p.display.rfind('[');
        if (lb != std::string::npos && p.display.back() == ']') {
            base = p.display.substr(0, lb);
            idx = static_cast<size_t>(std::stoul(
                p.display.substr(lb + 1, p.display.size() - lb - 2)));
        }
        if (p.is_input && net < driver.size() && driver[net])
            fatal("edif: instance %s drives input port %s",
                  driver[net]->name.c_str(), p.display.c_str());
        if (!buses.count(base))
            scalar_order.emplace_back(base, p.is_input);
        buses[base].push_back({idx, net});
    }
    for (const auto &[base, is_input] : scalar_order) {
        auto &bits = buses[base];
        std::vector<NetId> ordered(bits.size(), netlist::kConst0);
        for (const auto &b : bits) {
            if (b.index >= ordered.size())
                fatal("edif: port %s has non-contiguous bit %zu",
                      base.c_str(), b.index);
            ordered[b.index] = b.net;
        }
        nl.addPortOver(base,
                       is_input ? netlist::PortDir::Input
                                : netlist::PortDir::Output,
                       std::move(ordered));
    }
    nl.check();
    return nl;
}

} // namespace detail

netlist::Netlist
fromSExpr(const Node &root)
{
    Reader r;
    return r.run(root);
}

netlist::Netlist
readEdif(const std::string &edif_text)
{
    stats::ScopedTimer timer("edif.read.time");
    return fromSExpr(sexpr::parse(edif_text));
}

} // namespace qac::edif
