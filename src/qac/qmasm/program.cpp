#include "qac/qmasm/program.h"

#include <algorithm>
#include <cmath>

#include "qac/util/logging.h"
#include "qac/util/strings.h"

namespace qac::qmasm {

namespace {

/** Shortest decimal that round-trips the coefficient. */
std::string
numToString(double v)
{
    for (int prec = 1; prec <= 17; ++prec) {
        std::string s = format("%.*g", prec, v);
        if (std::stod(s) == v)
            return s;
    }
    return format("%.17g", v);
}

/** The '\n's in a printed field: each one starts another line. */
size_t
breaks(const std::string &field)
{
    return static_cast<size_t>(std::count(field.begin(), field.end(), '\n'));
}

/** Lines @p s prints to: one, plus the breaks in the fields it prints. */
size_t
statementLines(const Statement &s)
{
    switch (s.kind) {
      case Statement::Kind::Weight:
      case Statement::Kind::Pin:
        return 1 + breaks(s.sym1);
      case Statement::Kind::Assert:
      case Statement::Kind::Comment:
        return 1 + breaks(s.text);
      default:
        return 1 + breaks(s.sym1) + breaks(s.sym2);
    }
}

} // namespace

std::string
Statement::toString() const
{
    switch (kind) {
      case Kind::Weight:
        return sym1 + " " + numToString(value);
      case Kind::Coupling:
        return sym1 + " " + sym2 + " " + numToString(value);
      case Kind::Chain:
        return sym1 + " = " + sym2;
      case Kind::Alias:
        return sym1 + " <-> " + sym2;
      case Kind::Pin:
        return sym1 + " := " + (pin_value ? "true" : "false");
      case Kind::Assert:
        return "assert " + text;
      case Kind::UseMacro:
        return "!use_macro " + sym1 + " " + sym2;
      case Kind::Comment:
        return "# " + text;
    }
    panic("Statement::toString: bad kind");
}

const Macro *
Program::findMacro(const std::string &name) const
{
    for (const auto &m : macros)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
Program::toString() const
{
    std::string out;
    for (const auto &m : macros) {
        out += "!begin_macro " + m.name + "\n";
        for (const auto &s : m.body)
            out += "  " + s.toString() + "\n";
        out += "!end_macro " + m.name + "\n";
    }
    for (const auto &s : statements)
        out += s.toString() + "\n";
    return out;
}

size_t
countStatementLines(const std::vector<Statement> &stmts)
{
    size_t n = 0;
    for (const auto &s : stmts)
        n += statementLines(s);
    return n;
}

size_t
Program::lineCount() const
{
    size_t n = countStatementLines(statements);
    for (const auto &m : macros) // !begin_macro and !end_macro lines
        n += 2 * (1 + breaks(m.name)) + countStatementLines(m.body);
    return n;
}

bool
isInternalSymbol(const std::string &sym)
{
    return sym.find('$') != std::string::npos;
}

} // namespace qac::qmasm
