#include "qac/edif/writer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>
#include <unordered_map>

#include "qac/edif/lower.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"

namespace qac::edif {

namespace {

using netlist::NetId;

/**
 * Streams s-expression text laid out exactly as sexpr::Node's pretty
 * printer lays out the same tree: a list stays on one line unless it
 * has more than six items or a child list with more than three, and
 * then each item after the first starts a new line indented two
 * spaces per enclosing list.  The caller states each list's layout
 * when opening it; close() checks the statement against the items
 * actually printed, so a wrong statement is caught, not printed.
 */
class Printer
{
  public:
    explicit Printer(std::string &out) : out_(out) {}

    static bool
    fitsOneLine(size_t items, size_t widest_child_list)
    {
        return items <= 6 && widest_child_list <= 3;
    }

    /** Open a list and print its leading atoms. */
    void
    open(bool one_line, std::initializer_list<std::string_view> head)
    {
        separate();
        out_ += '(';
        stack_.push_back({one_line, 0, 0});
        for (std::string_view a : head)
            atom(a);
    }

    /** Close the @p lists innermost open lists. */
    void
    close(size_t lists = 1)
    {
        for (; lists > 0; --lists) {
            const Frame f = stack_.back();
            stack_.pop_back();
            if (f.one_line != fitsOneLine(f.items, f.widest))
                panic("edif writer: list of %zu items (widest child list "
                      "%zu) laid out wrongly",
                      f.items, f.widest);
            out_ += ')';
            if (!stack_.empty())
                stack_.back().widest =
                    std::max(stack_.back().widest, f.items);
        }
    }

    /** A one-line list of atoms. */
    void
    atoms(std::initializer_list<std::string_view> items)
    {
        open(true, items);
        close();
    }

    void
    atom(std::string_view text)
    {
        separate();
        out_ += text;
    }

    void
    string(std::string_view text)
    {
        separate();
        out_ += '"';
        for (char c : text) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            out_ += c;
        }
        out_ += '"';
    }

  private:
    struct Frame
    {
        bool one_line;
        size_t items;  ///< printed so far
        size_t widest; ///< largest child list printed so far
    };

    void
    separate()
    {
        if (stack_.empty())
            return;
        Frame &f = stack_.back();
        if (f.items++ == 0)
            return;
        if (f.one_line) {
            out_ += ' ';
        } else {
            out_ += '\n';
            out_.append(stack_.size() * 2, ' ');
        }
    }

    std::string &out_;
    std::vector<Frame> stack_;
};

/** True when sanitizeIdent(name) == name. */
bool
isIdent(std::string_view name)
{
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    return true;
}

/** NAME, or (rename ident "original") when the name needs sanitizing. */
void
name(Printer &p, std::string_view name)
{
    if (isIdent(name)) {
        p.atom(name);
        return;
    }
    p.open(true, {"rename", sanitizeIdent(std::string(name))});
    p.string(name);
    p.close();
}

/** (port NAME (direction INPUT|OUTPUT)) */
void
portDecl(Printer &p, std::string_view port, bool is_input)
{
    p.open(true, {"port"});
    name(p, port);
    p.atoms({"direction", is_input ? "INPUT" : "OUTPUT"});
    p.close();
}

/** (cell NAME (cellType GENERIC) (view netlist (viewType NETLIST)
 *  (interface ports...))), a DEVICE-library cell declaration. */
void
deviceCell(Printer &p, const char *cell_name,
           const std::vector<std::string> &inputs, const char *output)
{
    const size_t iface_items = 2 + inputs.size();
    p.open(false, {"cell", cell_name}); // its view has four items
    p.atoms({"cellType", "GENERIC"});
    p.open(Printer::fitsOneLine(4, iface_items), {"view", "netlist"});
    p.atoms({"viewType", "NETLIST"});
    p.open(Printer::fitsOneLine(iface_items, 3), {"interface"});
    for (const auto &in : inputs)
        portDecl(p, in, true);
    portDecl(p, output, false);
    p.close(3);
}

/** (instance NAME (viewRef netlist (cellRef CELL (libraryRef DEVICE)))) */
void
instance(Printer &p, std::string_view inst, std::string_view cell)
{
    p.open(true, {"instance", inst});
    p.open(true, {"viewRef", "netlist"});
    p.open(true, {"cellRef", cell});
    p.atoms({"libraryRef", "DEVICE"});
    p.close(3);
}

/** Open (library NAME (edifLevel 0) (technology (numberDefinition)) */
void
openLibrary(Printer &p, bool one_line, std::string_view library)
{
    p.open(one_line, {"library", library});
    p.atoms({"edifLevel", "0"});
    p.open(true, {"technology"});
    p.atoms({"numberDefinition"});
    p.close();
}

/** The zero-padded instance name of gate @p gi. */
std::string
gateInstanceName(size_t gi)
{
    return format("id%05zu", gi);
}

/** One bit of a top-cell port, named "port" or "port[i]". */
struct PortBit
{
    std::string name;
    NetId net;
    bool is_input;
};

std::vector<PortBit>
portBits(const netlist::Netlist &nl)
{
    std::vector<PortBit> bits;
    for (const auto &p : nl.ports())
        for (size_t i = 0; i < p.bits.size(); ++i)
            bits.push_back({p.bits.size() == 1
                                ? p.name
                                : format("%s[%zu]", p.name.c_str(), i),
                            p.bits[i], p.dir == netlist::PortDir::Input});
    return bits;
}

/**
 * How many endpoints each net's (net ...) stanza joins, and whether
 * the design needs GND/VCC instances.  A net with a single endpoint is
 * dangling and gets no stanza; a used constant net always gets one.
 */
struct Joins
{
    std::vector<uint32_t> count; ///< per net
    bool gnd = false;
    bool vcc = false;

    bool
    emitted(NetId n) const
    {
        return count[n] >= 2 ||
            (n <= netlist::kConst1 && count[n] >= 1);
    }
};

Joins
countJoins(const netlist::Netlist &nl)
{
    Joins j;
    j.count.assign(nl.numNets(), 0);
    for (const auto &g : nl.gates()) {
        for (NetId in : g.inputs) {
            ++j.count[in];
            j.gnd |= in == netlist::kConst0;
            j.vcc |= in == netlist::kConst1;
        }
        ++j.count[g.output];
    }
    for (const auto &p : nl.ports()) {
        for (NetId b : p.bits) {
            ++j.count[b];
            if (p.dir == netlist::PortDir::Output) {
                j.gnd |= b == netlist::kConst0;
                j.vcc |= b == netlist::kConst1;
            }
        }
    }
    j.count[netlist::kConst0] += j.gnd;
    j.count[netlist::kConst1] += j.vcc;
    return j;
}

} // namespace

std::string
sanitizeIdent(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
            out += c;
        else
            out += '_';
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out = "id_" + out;
    return out;
}

std::string
writeEdif(const netlist::Netlist &nl)
{
    stats::ScopedTimer timer("edif.write.time");
    const size_t num_gates = nl.numGates();
    const Joins joins = countJoins(nl);

    // Which device cells does this design use?  Declared by name.
    std::map<std::string_view, const cells::GateInfo *> device;
    for (const auto &g : nl.gates()) {
        const auto &info = cells::gateInfo(g.type);
        device.emplace(info.name, &info);
    }
    const std::vector<PortBit> bits = portBits(nl);

    // Every net's endpoints, grouped by net in the order they print:
    // gate pins in gate order, GND, VCC, then top port bits.
    // Instance index num_gates is const0, num_gates + 1 is const1.
    constexpr size_t kTopPort = SIZE_MAX;
    struct Ref
    {
        std::string_view pin;
        size_t inst;
    };
    std::vector<uint32_t> first(nl.numNets() + 1, 0);
    for (NetId n = 0; n < nl.numNets(); ++n)
        first[n + 1] = first[n] + joins.count[n];
    std::vector<Ref> refs(first.back());
    std::vector<uint32_t> fill(first.begin(), first.end() - 1);
    for (size_t gi = 0; gi < num_gates; ++gi) {
        const auto &g = nl.gates()[gi];
        const auto &info = cells::gateInfo(g.type);
        for (size_t k = 0; k < g.inputs.size(); ++k)
            refs[fill[g.inputs[k]]++] = {info.inputs[k], gi};
        refs[fill[g.output]++] = {info.output, gi};
    }
    if (joins.gnd)
        refs[fill[netlist::kConst0]++] = {"Y", num_gates};
    if (joins.vcc)
        refs[fill[netlist::kConst1]++] = {"Y", num_gates + 1};
    for (const PortBit &b : bits)
        refs[fill[b.net]++] = {b.name, kTopPort};

    size_t emitted_nets = 0;
    for (NetId n = 0; n < nl.numNets(); ++n)
        emitted_nets += joins.emitted(n);

    std::string out;
    out.reserve(96 * (num_gates + emitted_nets) + 64 * bits.size() + 1024);
    Printer p(out);

    p.open(false, {"edif"}); // nine items
    name(p, nl.name());
    p.atoms({"edifVersion", "2", "0", "0"});
    p.atoms({"edifLevel", "0"});
    p.open(true, {"keywordMap"});
    p.atoms({"keywordLevel", "0"});
    p.close();
    p.open(true, {"comment"});
    p.string("generated by QAC edif writer");
    p.close();

    // Cell declarations have four items each.
    const size_t device_cells = device.size() + joins.gnd + joins.vcc;
    openLibrary(p,
                Printer::fitsOneLine(4 + device_cells,
                                     device_cells ? 4 : 2),
                "DEVICE");
    for (const auto &[cell, info] : device)
        deviceCell(p, info->name, info->inputs, info->output);
    if (joins.gnd)
        deviceCell(p, "GND", {}, "Y");
    if (joins.vcc)
        deviceCell(p, "VCC", {}, "Y");
    p.close();

    // (library DESIGN ... (cell top ... (view ... iface contents))): the
    // cell has four items, its view five.
    const size_t iface_items = 1 + bits.size();
    const size_t contents_items =
        1 + num_gates + joins.gnd + joins.vcc + emitted_nets;
    openLibrary(p, false, "DESIGN");
    p.open(false, {"cell"});
    name(p, nl.name());
    p.atoms({"cellType", "GENERIC"});
    p.open(Printer::fitsOneLine(
               5, std::max({size_t{2}, iface_items, contents_items})),
           {"view", "netlist"});
    p.atoms({"viewType", "NETLIST"});

    p.open(Printer::fitsOneLine(iface_items, 3), {"interface"});
    for (const PortBit &b : bits)
        portDecl(p, b.name, b.is_input);
    p.close();

    // Instances and nets are three-item lists.
    p.open(Printer::fitsOneLine(contents_items, 3), {"contents"});
    std::vector<std::string> inst_names(num_gates);
    for (size_t gi = 0; gi < num_gates; ++gi) {
        inst_names[gi] = gateInstanceName(gi);
        instance(p, inst_names[gi],
                 cells::gateInfo(nl.gates()[gi].type).name);
    }
    inst_names.push_back("const0");
    inst_names.push_back("const1");
    if (joins.gnd)
        instance(p, "const0", "GND");
    if (joins.vcc)
        instance(p, "const1", "VCC");

    // Connectivity: one (net ...) per used net, joining every endpoint.
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (!joins.emitted(n))
            continue;
        const size_t joined_items = 1 + joins.count[n];
        p.open(Printer::fitsOneLine(3, joined_items), {"net"});
        name(p, nl.netName(n));
        p.open(Printer::fitsOneLine(joined_items, 3), {"joined"});
        for (uint32_t r = first[n]; r < first[n + 1]; ++r) {
            p.open(true, {"portRef"});
            name(p, refs[r].pin);
            if (refs[r].inst != kTopPort)
                p.atoms({"instanceRef", inst_names[refs[r].inst]});
            p.close();
        }
        p.close(2);
    }
    p.close(4); // contents, view, cell, library

    p.open(true, {"design"});
    name(p, nl.name());
    p.open(true, {"cellRef"});
    name(p, nl.name());
    p.atoms({"libraryRef", "DESIGN"});
    p.close(3); // cellRef, design, edif
    out += '\n';
    return out;
}

netlist::Netlist
denotedNetlist(const netlist::Netlist &nl)
{
    using detail::Instance;
    const Joins joins = countJoins(nl);

    // The reader makes one net per distinct (net ...) display name, in
    // stanza order, after the two constant nets.
    netlist::Netlist out;
    out.setName(nl.name());
    std::vector<NetId> net_of(nl.numNets(), detail::kNoNet);
    std::unordered_map<std::string_view, NetId> by_name;
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (!joins.emitted(n))
            continue;
        const std::string &net_name = nl.netName(n);
        auto [it, fresh] = by_name.try_emplace(net_name, 0);
        if (fresh)
            it->second = out.newNet(net_name);
        net_of[n] = it->second;
    }

    // Instances in name order, as the reader visits them.
    std::vector<Instance> insts;
    insts.reserve(nl.numGates() + 2);
    if (joins.gnd)
        insts.push_back({"const0", Instance::Kind::Gnd,
                         cells::GateType::BUF, {net_of[netlist::kConst0]}});
    if (joins.vcc)
        insts.push_back({"const1", Instance::Kind::Vcc,
                         cells::GateType::BUF, {net_of[netlist::kConst1]}});
    for (size_t gi = 0; gi < nl.numGates(); ++gi) {
        const auto &g = nl.gates()[gi];
        Instance inst{gateInstanceName(gi), Instance::Kind::Gate, g.type,
                      {}};
        inst.pins.reserve(g.inputs.size() + 1);
        for (NetId in : g.inputs)
            inst.pins.push_back(net_of[in]);
        inst.pins.push_back(net_of[g.output]);
        insts.push_back(std::move(inst));
    }
    auto by_inst_name = [](const Instance &a, const Instance &b) {
        return a.name < b.name;
    };
    // Zero padding keeps gate order until six-digit indices.
    if (!std::is_sorted(insts.begin(), insts.end(), by_inst_name))
        std::sort(insts.begin(), insts.end(), by_inst_name);

    // Top ports are keyed by EDIF identifier; when two bits share one,
    // the later (net ...) stanza wins.
    std::vector<detail::PortDecl> ports;
    std::map<std::string, NetId> last_net;
    for (PortBit &b : portBits(nl)) {
        std::string ident = sanitizeIdent(b.name);
        if (joins.emitted(b.net)) {
            auto [it, fresh] = last_net.try_emplace(ident, b.net);
            if (!fresh)
                it->second = std::max(it->second, b.net);
        }
        ports.push_back({std::move(ident), std::move(b.name), b.is_input});
    }
    std::map<std::string, NetId> port_nets;
    for (const auto &[ident, n] : last_net)
        port_nets.emplace(ident, net_of[n]);

    return detail::lowerTop(std::move(out), insts, ports, port_nets);
}

} // namespace qac::edif
