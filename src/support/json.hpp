#ifndef GMT_SUPPORT_JSON_HPP
#define GMT_SUPPORT_JSON_HPP

/**
 * @file
 * The one JSON string escaper every writer in the tree shares (stats
 * JSONL, Chrome traces, autotune move logs, bench_report).
 */

#include <string>

namespace gmt
{

/**
 * Escape @p s for use inside a JSON string literal (RFC 8259):
 * quotes and backslashes get a backslash, \n \r \t their short
 * forms, and every other control character a \u00XX escape. Bytes
 * >= 0x80 pass through, so UTF-8 input stays UTF-8.
 */
std::string jsonEscape(const std::string &s);

} // namespace gmt

#endif // GMT_SUPPORT_JSON_HPP
