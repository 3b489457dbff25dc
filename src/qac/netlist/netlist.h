/**
 * @file
 * Gate-level netlist IR.
 *
 * This is the interchange point of the compilation pipeline: the Verilog
 * synthesizer produces a Netlist, the optimizer and tech mapper rewrite
 * it, the EDIF writer/reader serialize it, and the QMASM generator
 * translates its cells and nets into penalty Hamiltonians.
 *
 * Nets are dense integer ids.  Ids 0 and 1 are reserved for the constant
 * nets (logic 0 / logic 1), which lower to GND/VCC pins (Section 4.3.4).
 */

#ifndef QAC_NETLIST_NETLIST_H
#define QAC_NETLIST_NETLIST_H

#include <cstdint>
#include <string>
#include <vector>

#include "qac/cells/gate.h"

namespace qac::netlist {

using NetId = uint32_t;

/** The always-false net (lowered to an H_GND pin). */
constexpr NetId kConst0 = 0;
/** The always-true net (lowered to an H_VCC pin). */
constexpr NetId kConst1 = 1;

/** One cell instance. */
struct Gate
{
    cells::GateType type;
    std::vector<NetId> inputs; ///< in gateInfo(type).inputs order
    NetId output;

    bool operator==(const Gate &) const = default;
};

enum class PortDir { Input, Output };

/** A (possibly multi-bit) module port. bits[0] is the LSB. */
struct Port
{
    std::string name;
    PortDir dir = PortDir::Input;
    std::vector<NetId> bits;

    size_t width() const { return bits.size(); }

    bool operator==(const Port &) const = default;
};

/** A flat, single-module gate-level netlist. */
class Netlist
{
  public:
    Netlist();

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Allocate a new net. An empty name gets an auto id-based name. */
    NetId newNet(const std::string &name = "");

    size_t numNets() const { return net_names_.size(); }
    const std::string &netName(NetId id) const;
    void setNetName(NetId id, const std::string &name);

    /** Append a gate. Input count must match the gate's arity. */
    size_t addGate(cells::GateType type, std::vector<NetId> inputs,
                   NetId output);

    const std::vector<Gate> &gates() const { return gates_; }
    std::vector<Gate> &gates() { return gates_; }

    /** Declare a port over freshly allocated nets (named name[i]). */
    Port &addPort(const std::string &name, PortDir dir, size_t width);

    /** Declare a port over existing nets. */
    Port &addPortOver(const std::string &name, PortDir dir,
                      std::vector<NetId> bits);

    const std::vector<Port> &ports() const { return ports_; }
    std::vector<Port> &ports() { return ports_; }
    const Port *findPort(const std::string &name) const;
    Port *findPort(const std::string &name);

    size_t numGates() const { return gates_.size(); }
    /** Gate tally for one type. */
    size_t countGates(cells::GateType type) const;
    /** True if any flip-flop is present (requires unrolling). */
    bool isSequential() const;

    /**
     * Rewrite every reference to net @p from (gate inputs, gate outputs,
     * port bits) to net @p to.
     */
    void replaceNet(NetId from, NetId to);

    /** Number of gate inputs plus output-port bits reading each net. */
    std::vector<uint32_t> fanoutCounts() const;

    /** Index of the gate driving each net, or -1 (size_t max). */
    std::vector<size_t> driverIndex() const;

    /**
     * Structural sanity check: arities correct, each net driven at most
     * once, no gate drives a constant or input-port net.  Fatal on
     * violation.
     */
    void check() const;

    /** Structural equality: name, net names, gates and ports. */
    bool operator==(const Netlist &) const = default;

  private:
    std::string name_ = "top";
    std::vector<std::string> net_names_;
    std::vector<Gate> gates_;
    std::vector<Port> ports_;
};

} // namespace qac::netlist

#endif // QAC_NETLIST_NETLIST_H
