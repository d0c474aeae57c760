#include "src/common/parse_time.h"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "src/common/logging.h"

namespace recssd
{

NumberError
parseCount(const std::string &text, std::uint64_t max, std::uint64_t &value)
{
    errno = 0;
    char *end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    // Digits only: strtoull would skip space and wrap a leading '-'.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size())
        return NumberError::Malformed;
    if (errno == ERANGE || value > max)
        return NumberError::OutOfRange;
    return NumberError::Ok;
}

NumberError
parseReal(const std::string &text, double min, double max, double &value)
{
    errno = 0;
    char *end = nullptr;
    value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        return NumberError::Malformed;
    if (!std::isfinite(value))
        return NumberError::NotFinite;
    if (errno == ERANGE || value < min || value > max)
        return NumberError::OutOfRange;
    return NumberError::Ok;
}

std::uint64_t
specCount(const std::string &text, std::uint64_t max,
          const std::string &where, const char *grammar)
{
    std::uint64_t value = 0;
    NumberError error = parseCount(text, max, value);
    if (error != NumberError::Ok)
        panic(error == NumberError::OutOfRange
                  ? "%s: integer '%s' out of range in '%s'"
                  : "%s: bad integer '%s' in '%s'",
              grammar, text.c_str(), where.c_str());
    return value;
}

double
specReal(const std::string &text, const std::string &where,
         const char *grammar)
{
    double value = 0.0;
    NumberError error = parseReal(text, -DBL_MAX, DBL_MAX, value);
    if (error != NumberError::Ok)
        panic(error == NumberError::NotFinite
                  ? "%s: non-finite number '%s' in '%s'"
                  : "%s: bad number '%s' in '%s'",
              grammar, text.c_str(), where.c_str());
    return value;
}

Tick
parseTime(const std::string &text, const std::string &where,
          const char *grammar)
{
    // "ns", "us" and "ms" end in "s" too, so they are tried first.
    static constexpr std::pair<std::string_view, Tick> units[] = {
        {"ns", nsec}, {"us", usec}, {"ms", msec}, {"s", sec}};
    for (const auto &[suffix, unit] : units) {
        if (!text.ends_with(suffix))
            continue;
        double value = 0.0;
        NumberError error =
            parseReal(text.substr(0, text.size() - suffix.size()), -DBL_MAX,
                      DBL_MAX, value);
        if (error != NumberError::Ok)
            panic(error == NumberError::NotFinite
                      ? "%s: time '%s' is not finite in '%s'"
                      : "%s: bad time '%s' in '%s'",
                  grammar, text.c_str(), where.c_str());
        recssd_assert(value >= 0.0, "%s: negative time in '%s'", grammar,
                      where.c_str());
        // 2^64 as a double: every tick count below it fits in a Tick,
        // and converting anything at or above it is undefined.
        double ticks = value * static_cast<double>(unit);
        recssd_assert(ticks < 18446744073709551616.0,
                      "%s: time '%s' overflows the tick counter in '%s'",
                      grammar, text.c_str(), where.c_str());
        return static_cast<Tick>(ticks);
    }
    panic("%s: time '%s' needs a ns/us/ms/s suffix in '%s'", grammar,
          text.c_str(), where.c_str());
}

}  // namespace recssd
