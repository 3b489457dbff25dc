#include "qac/qmasm/stdcell_lib.h"

#include <mutex>

#include "qac/cells/stdcell.h"
#include "qac/util/logging.h"

namespace qac::qmasm {

namespace {

const char *
assertTextFor(cells::GateType t)
{
    using cells::GateType;
    switch (t) {
      case GateType::NOT: return "Y = ~A";
      case GateType::AND: return "Y = A&B";
      case GateType::OR: return "Y = A|B";
      case GateType::NAND: return "Y = ~(A&B)";
      case GateType::NOR: return "Y = ~(A|B)";
      case GateType::XOR: return "Y = A^B";
      case GateType::XNOR: return "Y = ~(A^B)";
      case GateType::MUX: return "Y = (S&B)|(~S&A)";
      case GateType::AOI3: return "Y = ~((A&B)|C)";
      case GateType::OAI3: return "Y = ~((A|B)&C)";
      case GateType::AOI4: return "Y = ~((A&B)|(C&D))";
      case GateType::OAI4: return "Y = ~((A|B)&(C|D))";
      case GateType::DFF_P:
      case GateType::DFF_N: return "Q = D";
      default: return nullptr;
    }
}

Macro
macroFor(cells::GateType t)
{
    const auto &cell = cells::standardCell(t);
    Macro m;
    m.name = cells::gateInfo(t).name;

    if (const char *at = assertTextFor(t)) {
        Statement st;
        st.kind = Statement::Kind::Assert;
        st.text = at;
        m.body.push_back(std::move(st));
    }
    for (uint32_t i = 0; i < cell.H.numVars(); ++i) {
        double h = cell.H.linear(i);
        if (h == 0.0)
            continue;
        Statement st;
        st.kind = Statement::Kind::Weight;
        st.sym1 = cell.varNames[i];
        st.value = h;
        m.body.push_back(std::move(st));
    }
    for (const auto &term : cell.H.sortedQuadraticTerms()) {
        Statement st;
        st.kind = Statement::Kind::Coupling;
        st.sym1 = cell.varNames[term.i];
        st.sym2 = cell.varNames[term.j];
        st.value = term.value;
        m.body.push_back(std::move(st));
    }
    return m;
}

} // namespace

const Program &
stdcellLibrary()
{
    static Program lib;
    static std::once_flag once;
    std::call_once(once, [] {
        using cells::GateType;
        for (GateType t :
             {GateType::NOT, GateType::AND, GateType::OR, GateType::NAND,
              GateType::NOR, GateType::XOR, GateType::XNOR, GateType::MUX,
              GateType::AOI3, GateType::OAI3, GateType::AOI4,
              GateType::OAI4, GateType::DFF_P, GateType::DFF_N})
            lib.macros.push_back(macroFor(t));
    });
    return lib;
}

const std::string &
stdcellText()
{
    static const std::string text =
        "# QAC standard-cell library (paper Table 5)\n" +
        stdcellLibrary().toString();
    return text;
}

IncludeResolver
stdcellResolver()
{
    return [](const std::string &name) -> std::optional<std::string> {
        if (name == "stdcell.qmasm" || name == "stdcell")
            return stdcellText();
        return std::nullopt;
    };
}

} // namespace qac::qmasm
