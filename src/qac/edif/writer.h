/**
 * @file
 * EDIF 2.0.0 netlist writer (paper, Section 4.2).
 *
 * The paper's flow passes through a real EDIF artifact ("we specify EDIF
 * as the netlist format for Yosys to output"), and Section 6.1 measures
 * its size (123 lines for the map-coloring verifier), so QAC serializes
 * the gate netlist to genuine EDIF text: the artifact stored in .qo
 * files and printed by `qacc --emit-edif`.  Layout mirrors Yosys
 * output: a DEVICE library declaring the cell interfaces, a DESIGN
 * library with the top cell, instances, and (net ... (joined ...))
 * connectivity.  The text is streamed, not built as a tree first.
 *
 * compile() feeds edif2qmasm denotedNetlist(nl), the netlist that text
 * denotes, instead of parsing the text it just wrote; edif_test and
 * pipeline_fuzz_test check it equals readEdif(writeEdif(nl)).
 */

#ifndef QAC_EDIF_WRITER_H
#define QAC_EDIF_WRITER_H

#include <string>

#include "qac/netlist/netlist.h"

namespace qac::edif {

/** Render @p nl as pretty-printed EDIF text. */
std::string writeEdif(const netlist::Netlist &nl);

/**
 * The netlist the text writeEdif(nl) denotes: equal to
 * readEdif(writeEdif(nl)), built without printing or parsing.  Nets
 * are renumbered in (net ...) order and merged by name, dangling nets
 * dropped, GND/VCC nets folded onto the constant nets, gates put in
 * instance-name order and ports regrouped from their bits.  Fatal
 * where readEdif would be: a gate pin on a dangling net.
 */
netlist::Netlist denotedNetlist(const netlist::Netlist &nl);

/** EDIF-legal identifier for an arbitrary net/port name.  Reversible
 *  names are preserved through (rename ident "original"). */
std::string sanitizeIdent(const std::string &name);

} // namespace qac::edif

#endif // QAC_EDIF_WRITER_H
