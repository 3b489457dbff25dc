/**
 * @file
 * EDIF 2.0.0 netlist reader.
 *
 * Parses the EDIF dialect produced by writer.h (which mirrors Yosys
 * output) back into a gate-level Netlist, reconstructing multi-bit ports
 * from their (rename ident "name[i]") originals and lowering GND/VCC
 * instances onto the constant nets.  This is the paper's edif2qmasm
 * input stage: "An EDIF netlist is represented by a single, large
 * s-expression, which makes it easy to parse mechanically."  The .qo
 * loader uses it to rebuild a compiled netlist from the stored text.
 */

#ifndef QAC_EDIF_READER_H
#define QAC_EDIF_READER_H

#include <string>

#include "qac/netlist/netlist.h"
#include "qac/sexpr/sexpr.h"

namespace qac::edif {

/** Parse EDIF text into a netlist. Throws FatalError on malformed input. */
netlist::Netlist readEdif(const std::string &edif_text);

/** As readEdif but from an already parsed s-expression. */
netlist::Netlist fromSExpr(const sexpr::Node &root);

} // namespace qac::edif

#endif // QAC_EDIF_READER_H
