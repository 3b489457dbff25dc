/**
 * @file
 * The generated QMASM standard-cell library (paper, Section 4.3.2):
 * every Table 5 cell as a QMASM macro with weights, couplings, and a
 * debugging assert, analogous to the paper's stdcell.qmasm.
 */

#ifndef QAC_QMASM_STDCELL_LIB_H
#define QAC_QMASM_STDCELL_LIB_H

#include <string>

#include "qac/qmasm/program.h"

namespace qac::qmasm {

/** Macro-only program holding the standard-cell library (cached). */
const Program &stdcellLibrary();

/** The library as QMASM text (the stdcell.qmasm artifact; cached). */
const std::string &stdcellText();

/** Include resolver mapping "stdcell.qmasm" to stdcellText(). */
IncludeResolver stdcellResolver();

} // namespace qac::qmasm

#endif // QAC_QMASM_STDCELL_LIB_H
