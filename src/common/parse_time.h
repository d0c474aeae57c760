/**
 * @file
 * The number and duration grammar shared by the CLI and the spec
 * parsers.
 *
 * A count is decimal digits only: no sign, space, fraction or trailing
 * text, so "-1" never wraps to a huge unsigned. A real is a fully
 * consumed, finite `strtod` number that does not overflow or
 * underflow. `parseCount` / `parseReal` apply these rules and report
 * failure to the caller (recssd_sim turns it into a usage error);
 * `specCount` / `specReal` are the spec grammars' form and panic.
 *
 * Fault plans and tenant specs write times as a decimal number with a
 * mandatory unit suffix: "3ms", "250us", "1.5s", "40ns".
 */

#ifndef RECSSD_COMMON_PARSE_TIME_H
#define RECSSD_COMMON_PARSE_TIME_H

#include <cstdint>
#include <string>

#include "src/common/types.h"

namespace recssd
{

/** Why a number was rejected (`Ok`: it was not). */
enum class NumberError { Ok, Malformed, OutOfRange, NotFinite };

/** Parse a count of at most `max` into `value`. */
NumberError parseCount(const std::string &text, std::uint64_t max,
                       std::uint64_t &value);

/** Parse a real in [min, max] into `value`. */
NumberError parseReal(const std::string &text, double min, double max,
                      double &value);

/**
 * `parseCount` for a spec grammar: panics on a rejected count with a
 * message that starts with `grammar` ("fault plan", "tenant spec") and
 * quotes `where`, the enclosing clause.
 */
std::uint64_t specCount(const std::string &text, std::uint64_t max,
                        const std::string &where, const char *grammar);

/** `parseReal` over every finite value, panicking like `specCount`. */
double specReal(const std::string &text, const std::string &where,
                const char *grammar);

/**
 * Parse `text` ("3ms" / "250us" / "1.5s" / "40ns") into ticks. Panics
 * on a malformed number, a missing or unknown suffix, a negative or
 * non-finite value, or one whose tick count does not fit in `Tick`.
 * Messages start with `grammar` and quote `where`, like `specCount`.
 */
Tick parseTime(const std::string &text, const std::string &where,
               const char *grammar);

}  // namespace recssd

#endif  // RECSSD_COMMON_PARSE_TIME_H
