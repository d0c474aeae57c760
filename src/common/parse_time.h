/**
 * @file
 * The duration grammar shared by the spec parsers.
 *
 * Fault plans and tenant specs both write times as a decimal number
 * with a mandatory unit suffix: "3ms", "250us", "1.5s", "40ns".
 */

#ifndef RECSSD_COMMON_PARSE_TIME_H
#define RECSSD_COMMON_PARSE_TIME_H

#include <string>

#include "src/common/types.h"

namespace recssd
{

/**
 * Parse `text` ("3ms" / "250us" / "1.5s" / "40ns") into ticks. Panics
 * on a malformed number, a missing or unknown suffix, a negative or
 * non-finite value, or one whose tick count does not fit in `Tick`.
 * Messages start with `grammar` ("fault plan", "tenant spec") and
 * quote `where`, the enclosing clause.
 */
Tick parseTime(const std::string &text, const std::string &where,
               const char *grammar);

}  // namespace recssd

#endif  // RECSSD_COMMON_PARSE_TIME_H
