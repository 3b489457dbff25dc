/**
 * @file
 * Small string helpers shared across the front ends.
 */

#ifndef QAC_UTIL_STRINGS_H
#define QAC_UTIL_STRINGS_H

#include <string>
#include <string_view>
#include <vector>

namespace qac {

/** Split @p s on @p sep; empty fields are kept. */
std::vector<std::string> split(const std::string &s, char sep);

/** Split @p s on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(const std::string &s);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Join @p parts with @p sep between elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True iff @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True iff @p s ends with @p suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Lower-case ASCII copy of @p s. */
std::string toLower(const std::string &s);

/** Count '\n'-separated lines in @p s (a trailing fragment counts). */
size_t countLines(const std::string &s);

/**
 * Append @p s to @p out escaped for a JSON string body: '"', '\\',
 * newline and tab get their short escapes, other control bytes below
 * 0x20 become \u00XX, and every other byte (UTF-8 included) passes
 * through unchanged.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

} // namespace qac

#endif // QAC_UTIL_STRINGS_H
