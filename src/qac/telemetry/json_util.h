/**
 * @file
 * Tiny JSON-emission helpers shared by the telemetry serializers.
 * Doubles render with %.17g (round-trip exact) so the JSONL byte
 * identity across thread counts extends to every numeric field;
 * non-finite values render as null (JSON has no Inf/NaN).
 */

#ifndef QAC_TELEMETRY_JSON_UTIL_H
#define QAC_TELEMETRY_JSON_UTIL_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "qac/util/strings.h"

namespace qac::telemetry::detail {

inline void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

inline void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

inline void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace qac::telemetry::detail

#endif // QAC_TELEMETRY_JSON_UTIL_H
