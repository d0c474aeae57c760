#include "src/common/parse_time.h"

#include <cmath>

#include "src/common/logging.h"

namespace recssd
{

Tick
parseTime(const std::string &text, const std::string &where,
          const char *grammar)
{
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (...) {
        panic("%s: bad time '%s' in '%s'", grammar, text.c_str(),
              where.c_str());
    }
    std::string suffix = text.substr(pos);
    Tick unit = 0;
    if (suffix == "ns")
        unit = nsec;
    else if (suffix == "us")
        unit = usec;
    else if (suffix == "ms")
        unit = msec;
    else if (suffix == "s")
        unit = sec;
    else
        panic("%s: time '%s' needs a ns/us/ms/s suffix in '%s'", grammar,
              text.c_str(), where.c_str());
    recssd_assert(std::isfinite(value), "%s: time '%s' is not finite in '%s'",
                  grammar, text.c_str(), where.c_str());
    recssd_assert(value >= 0.0, "%s: negative time in '%s'", grammar,
                  where.c_str());
    // 2^64 as a double: every tick count below it fits in a Tick, and
    // converting anything at or above it is undefined.
    double ticks = value * static_cast<double>(unit);
    recssd_assert(ticks < 18446744073709551616.0,
                  "%s: time '%s' overflows the tick counter in '%s'",
                  grammar, text.c_str(), where.c_str());
    return static_cast<Tick>(ticks);
}

}  // namespace recssd
