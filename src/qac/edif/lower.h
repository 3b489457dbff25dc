/**
 * @file
 * The last stage of EDIF reading, shared by edif::readEdif (which
 * resolves the top cell from parsed text) and edif::denotedNetlist
 * (which resolves it from the netlist writeEdif prints).  Both hand
 * this stage the same resolved top cell, so both return the same
 * netlist.  Internal to qac/edif.
 */

#ifndef QAC_EDIF_LOWER_H
#define QAC_EDIF_LOWER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qac/netlist/netlist.h"

namespace qac::edif::detail {

/** A pin no (net ...) joins. */
constexpr netlist::NetId kNoNet = UINT32_MAX;

/** One instance of the top cell, its pins resolved to nets. */
struct Instance
{
    enum class Kind { Gate, Gnd, Vcc };

    std::string name; ///< instance identifier, for error messages
    Kind kind = Kind::Gate;
    cells::GateType type = cells::GateType::BUF; ///< Kind::Gate only
    /** Gate: gateInfo(type) inputs, then the output.  GND/VCC: Y.
     *  kNoNet where no net joins the pin. */
    std::vector<netlist::NetId> pins;
};

/** One (port ...) of a cell interface: a single bit. */
struct PortDecl
{
    std::string ident;   ///< EDIF identifier
    std::string display; ///< original name: "base" or "base[i]"
    bool is_input = false;
};

/**
 * Finish reading a top cell.  @p nl carries the design name and one
 * net per distinct (net ...) display name; @p insts are in instance
 * name order; @p ports is the top interface in declaration order and
 * @p port_nets maps a port ident to the net joining it.  GND/VCC
 * instances remap their net onto the constant nets as they are met,
 * gates are added in order, and port bits are grouped into buses by
 * their "base[i]" display names.  Fatal on an unconnected gate pin or
 * a non-contiguous bus.
 */
netlist::Netlist lowerTop(netlist::Netlist nl,
                          std::vector<Instance> &insts,
                          const std::vector<PortDecl> &ports,
                          std::map<std::string, netlist::NetId> &port_nets);

} // namespace qac::edif::detail

#endif // QAC_EDIF_LOWER_H
