/**
 * @file
 * QMASM program representation (paper, Section 4.3; Pakin, "A quantum
 * macro assembler", HPEC 2016).
 *
 * A QMASM program is a list of statements over symbolic variables:
 *
 *   A 1.5          weight (h coefficient)
 *   A B -0.5       coupling (J coefficient)
 *   A = B          chain: bias two variables equal (merged or strongly
 *                  coupled at assembly; Section 4.3.1)
 *   A <-> B        alias: the same variable under two names
 *   A := true      pin: force a value (Section 4.3.6 argument passing)
 *   assert Y = A&B debugging assertion, checked against solutions
 *   !begin_macro M / !end_macro M      macro definition
 *   !use_macro M inst                  instantiation (symbols inst.X)
 *   !include "file"                    library inclusion
 *
 * Variables whose name contains '$' are internal ("uninteresting") and
 * omitted from reported solutions, matching qmasm behaviour.
 */

#ifndef QAC_QMASM_PROGRAM_H
#define QAC_QMASM_PROGRAM_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace qac::qmasm {

/** One QMASM statement. */
struct Statement
{
    enum class Kind {
        Weight,   ///< sym1, value
        Coupling, ///< sym1, sym2, value
        Chain,    ///< sym1 = sym2
        Alias,    ///< sym1 <-> sym2
        Pin,      ///< sym1 := pin_value
        Assert,   ///< text (expression over symbols)
        UseMacro, ///< sym1 = macro name, sym2 = instance name
        Comment,  ///< text
    };

    Kind kind = Kind::Comment;
    std::string sym1, sym2;
    double value = 0.0;
    bool pin_value = false;
    std::string text;
    size_t line = 0;

    std::string toString() const;
};

/** A named macro: a reusable block of statements. */
struct Macro
{
    std::string name;
    std::vector<Statement> body;
};

/** A parsed (or programmatically built) QMASM program. */
class Program
{
  public:
    std::vector<Statement> statements;
    std::vector<Macro> macros;

    const Macro *findMacro(const std::string &name) const;

    /** Serialize back to QMASM text (macros first, then statements). */
    std::string toString() const;

    /** countLines(toString()), counted without printing — the
     *  Section 6.1 size metric. */
    size_t lineCount() const;
};

/** Lines the statements print to: Program::lineCount() without the
 *  macros. */
size_t countStatementLines(const std::vector<Statement> &stmts);

/**
 * Callback mapping an !include target to file contents.
 * Returning nullopt makes the include fail.
 */
using IncludeResolver =
    std::function<std::optional<std::string>(const std::string &)>;

/** True if the symbol is internal (contains '$'). */
bool isInternalSymbol(const std::string &sym);

} // namespace qac::qmasm

#endif // QAC_QMASM_PROGRAM_H
