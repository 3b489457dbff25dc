/**
 * @file
 * EDIF netlist -> QMASM translation (the paper's edif2qmasm tool,
 * Section 4.3).
 *
 * "Our approach involves establishing a mapping from each gate type that
 * can appear in a netlist to a relatively small quadratic pseudo-Boolean
 * function, which is expressed as a QMASM macro.  These are instantiated
 * for each cell specified by the netlist.  A net between cells is
 * expressed as a bias for the two connected variables to have the same
 * value."
 */

#ifndef QAC_QMASM_EDIF2QMASM_H
#define QAC_QMASM_EDIF2QMASM_H

#include <map>
#include <string>

#include "qac/netlist/netlist.h"
#include "qac/qmasm/program.h"

namespace qac::qmasm {

/** Translate a gate netlist into a QMASM program.  The standard-cell
 *  macros are copied into the program (the effect of
 *  '!include "stdcell.qmasm"'). */
Program netlistToQmasm(const netlist::Netlist &nl);

/** Translate EDIF text (parsing it first). */
Program edifToQmasm(const std::string &edif_text);

/** Symbol naming for a port bit ("c[1]"; scalar ports keep their name). */
std::string portBitSymbol(const netlist::Port &port, size_t bit);

/**
 * Every symbol netlistToQmasm names, mapped to the net it lives on:
 * port-bit symbols plus gate instance pins ("$g0.A").  The instance
 * numbering is exactly the one netlistToQmasm emits (BUF cells are
 * skipped), so simulated net values can be joined against the
 * assembled program's symbol table — the simulation subsystem checks
 * `!assert` statements against traces through this map.
 */
std::map<std::string, netlist::NetId>
symbolNets(const netlist::Netlist &nl);

} // namespace qac::qmasm

#endif // QAC_QMASM_EDIF2QMASM_H
