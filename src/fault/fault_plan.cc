#include "src/fault/fault_plan.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/parse_time.h"

namespace recssd
{

namespace
{

FaultScenario
parseScenario(const std::string &text)
{
    auto at_pos = text.find('@');
    recssd_assert(at_pos != std::string::npos,
                  "fault plan: scenario '%s' missing '@device'",
                  text.c_str());
    std::string kind = text.substr(0, at_pos);
    std::string rest = text.substr(at_pos + 1);
    auto colon = rest.find(':');
    std::string dev = colon == std::string::npos ? rest
                                                 : rest.substr(0, colon);
    std::string kvs = colon == std::string::npos ? ""
                                                 : rest.substr(colon + 1);

    FaultScenario s;
    if (kind == "stall")
        s.kind = FaultKind::DieStall;
    else if (kind == "fwpause")
        s.kind = FaultKind::FirmwarePause;
    else if (kind == "inflate")
        s.kind = FaultKind::ReadInflation;
    else if (kind == "dropout")
        s.kind = FaultKind::DeviceDropout;
    else
        panic("fault plan: unknown kind '%s' (stall|fwpause|inflate|"
              "dropout)", kind.c_str());
    auto count = [&](const std::string &v, std::uint64_t max) {
        return specCount(v, max, text, "fault plan");
    };
    // ch / die: an index, or -1 for a seeded random one.
    auto index = [&](const std::string &v) {
        return v == "-1" ? -1 : static_cast<int>(count(v, INT_MAX));
    };
    s.device = static_cast<unsigned>(count(dev, UINT_MAX));

    // Kind-specific defaults so terse specs stay meaningful.
    if (s.kind == FaultKind::DieStall || s.kind == FaultKind::FirmwarePause)
        s.duration = 1 * msec;
    if (s.kind == FaultKind::ReadInflation)
        s.duration = 10 * msec;

    std::stringstream ss(kvs);
    std::string kv;
    while (std::getline(ss, kv, ',')) {
        if (kv.empty())
            continue;
        auto eq = kv.find('=');
        recssd_assert(eq != std::string::npos,
                      "fault plan: bad key=value '%s' in '%s'", kv.c_str(),
                      text.c_str());
        std::string key = kv.substr(0, eq);
        std::string val = kv.substr(eq + 1);
        if (key == "at")
            s.at = parseTime(val, text, "fault plan");
        else if (key == "dur")
            s.duration = parseTime(val, text, "fault plan");
        else if (key == "period")
            s.period = parseTime(val, text, "fault plan");
        else if (key == "jitter")
            s.jitter = parseTime(val, text, "fault plan");
        else if (key == "factor")
            s.factor = specReal(val, text, "fault plan");
        else if (key == "ch")
            s.channel = index(val);
        else if (key == "die")
            s.die = index(val);
        else if (key == "count")
            s.count = static_cast<unsigned>(count(val, UINT_MAX));
        else
            panic("fault plan: unknown key '%s' in '%s'", key.c_str(),
                  text.c_str());
    }
    recssd_assert(s.count >= 1, "fault plan: count=0 in '%s'",
                  text.c_str());
    recssd_assert(s.count == 1 || s.period > 0,
                  "fault plan: count>1 needs period in '%s'", text.c_str());
    // Occurrence starts must not decrease: jitter draws from
    // [0, jitter), so jitter <= period keeps each start before the
    // next, and the last start must fit the clock.
    recssd_assert(s.count == 1 || s.jitter <= s.period,
                  "fault plan: jitter exceeds period in '%s'", text.c_str());
    __extension__ typedef unsigned __int128 Wide;
    recssd_assert(Wide(s.at) + Wide(s.count - 1) * s.period + s.jitter <=
                      maxTick,
                  "fault plan: occurrences overflow the clock in '%s'",
                  text.c_str());
    if (s.kind == FaultKind::ReadInflation)
        recssd_assert(s.factor >= 1.0,
                      "fault plan: inflate factor < 1 in '%s'",
                      text.c_str());
    if (s.kind == FaultKind::DeviceDropout)
        recssd_assert(s.count == 1,
                      "fault plan: dropout repeats make no sense in '%s'",
                      text.c_str());
    return s;
}

void
parseElement(FaultPlan &plan, std::string element)
{
    // Trim whitespace.
    while (!element.empty() && std::isspace(
                                   static_cast<unsigned char>(element.front())))
        element.erase(element.begin());
    while (!element.empty() &&
           std::isspace(static_cast<unsigned char>(element.back())))
        element.pop_back();
    if (element.empty() || element.front() == '#')
        return;
    if (element.rfind("seed=", 0) == 0) {
        plan.seed =
            specCount(element.substr(5), UINT64_MAX, element, "fault plan");
        return;
    }
    plan.scenarios.push_back(parseScenario(element));
}

}  // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DieStall:      return "die_stall";
      case FaultKind::FirmwarePause: return "fw_pause";
      case FaultKind::ReadInflation: return "read_inflation";
      case FaultKind::DeviceDropout: return "dropout";
    }
    return "?";
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    // Newlines separate like ';' (a plan file pasted inline parses
    // the same way it loads from disk); '#' comments cover one line.
    std::stringstream lines(spec);
    std::string line;
    while (std::getline(lines, line)) {
        std::stringstream ss(line);
        std::string element;
        while (std::getline(ss, element, ';'))
            parseElement(plan, element);
    }
    return plan;
}

FaultPlan
FaultPlan::parseFile(const std::string &path)
{
    std::ifstream is(path);
    recssd_assert(is.good(), "fault plan: cannot read '%s'", path.c_str());
    std::stringstream text;
    text << is.rdbuf();
    return parse(text.str());
}

FaultPlan
FaultPlan::load(const std::string &spec)
{
    if (std::ifstream probe(spec); probe.good())
        return parseFile(spec);
    return parse(spec);
}

std::vector<FaultScenario>
FaultPlan::forDevice(unsigned d) const
{
    std::vector<FaultScenario> out;
    for (const auto &s : scenarios)
        if (s.device == d)
            out.push_back(s);
    return out;
}

unsigned
FaultPlan::maxDevice() const
{
    unsigned d = 0;
    for (const auto &s : scenarios)
        d = std::max(d, s.device);
    return d;
}

}  // namespace recssd
