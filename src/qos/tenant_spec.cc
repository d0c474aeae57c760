#include "src/qos/tenant_spec.h"

#include <cctype>
#include <climits>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/parse_time.h"

namespace recssd
{

namespace
{

TenantSpec
parseTenant(const std::string &text)
{
    auto colon = text.find(':');
    TenantSpec t;
    t.name = colon == std::string::npos ? text : text.substr(0, colon);
    recssd_assert(!t.name.empty(), "tenant spec: empty tenant name in "
                  "'%s'", text.c_str());
    for (char c : t.name) {
        recssd_assert(std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '_' || c == '-',
                      "tenant spec: name '%s' must be [A-Za-z0-9_-]",
                      t.name.c_str());
    }
    std::string kvs = colon == std::string::npos ? ""
                                                 : text.substr(colon + 1);
    auto real = [&](const std::string &v) {
        return specReal(v, text, "tenant spec");
    };
    auto count = [&](const std::string &v) {
        return static_cast<unsigned>(
            specCount(v, UINT_MAX, text, "tenant spec"));
    };
    std::stringstream ss(kvs);
    std::string kv;
    while (std::getline(ss, kv, ',')) {
        if (kv.empty())
            continue;
        auto eq = kv.find('=');
        recssd_assert(eq != std::string::npos,
                      "tenant spec: expected key=value, got '%s' in '%s'",
                      kv.c_str(), text.c_str());
        std::string key = kv.substr(0, eq);
        std::string value = kv.substr(eq + 1);
        if (key == "model") {
            t.model = value;
        } else if (key == "arrival") {
            if (value == "poisson")
                t.arrivals.process = ArrivalProcess::Poisson;
            else if (value == "fixed")
                t.arrivals.process = ArrivalProcess::Fixed;
            else if (value == "bursty")
                t.arrivals.process = ArrivalProcess::Bursty;
            else
                panic("tenant spec: unknown arrival '%s' (poisson|fixed|"
                      "bursty)", value.c_str());
        } else if (key == "qps") {
            t.arrivals.qps = real(value);
        } else if (key == "burst") {
            t.arrivals.burstiness = real(value);
        } else if (key == "batch") {
            unsigned b = count(value);
            recssd_assert(b > 0, "tenant spec: batch must be > 0 in '%s'",
                          text.c_str());
            t.shape.minBatch = b;
            t.shape.maxBatch = b;
        } else if (key == "tables") {
            unsigned n = count(value);
            t.shape.minTables = n;
            t.shape.maxTables = n;
        } else if (key == "pool") {
            double p = real(value);
            t.shape.minPoolingScale = p;
            t.shape.maxPoolingScale = p;
        } else if (key == "slo") {
            t.slo = parseTime(value, text, "tenant spec");
        } else if (key == "res") {
            t.share.reservation = real(value);
        } else if (key == "weight") {
            t.share.weight = real(value);
        } else if (key == "limit") {
            t.share.limit = real(value);
        } else if (key == "queries") {
            t.queries = count(value);
        } else if (key == "update_rate") {
            t.updates.rate = real(value);
        } else if (key == "update_skew") {
            t.updates.skew = real(value);
        } else if (key == "seed") {
            t.seed = count(value);
        } else {
            panic("tenant spec: unknown key '%s' in '%s'", key.c_str(),
                  text.c_str());
        }
    }
    recssd_assert(t.arrivals.qps >= minQps,
                  "tenant spec: '%s' needs qps >= %g", t.name.c_str(),
                  minQps);
    recssd_assert(t.share.weight > 0.0,
                  "tenant spec: '%s' needs weight > 0", t.name.c_str());
    recssd_assert(t.share.reservation >= 0.0 && t.share.limit >= 0.0,
                  "tenant spec: '%s' has a negative share", t.name.c_str());
    recssd_assert(t.share.limit == 0.0 ||
                      t.share.limit >= t.share.reservation,
                  "tenant spec: '%s' limit below its reservation",
                  t.name.c_str());
    recssd_assert(t.updates.rate >= 0.0 && t.updates.skew >= 0.0,
                  "tenant spec: '%s' has a negative update knob",
                  t.name.c_str());
    recssd_assert(t.updates.rate == 0.0 ||
                      (t.updates.rate >= minUpdateRate &&
                       t.updates.rate <= maxUpdateRate),
                  "tenant spec: '%s' update_rate outside [%g, %g]",
                  t.name.c_str(), minUpdateRate, maxUpdateRate);
    return t;
}

}  // namespace

TenantSet
TenantSet::parse(const std::string &spec)
{
    TenantSet set;
    std::stringstream ss(spec);
    std::string element;
    while (std::getline(ss, element, ';')) {
        // Trim whitespace (the file form funnels through here too).
        auto first = element.find_first_not_of(" \t\r\n");
        if (first == std::string::npos)
            continue;
        auto last = element.find_last_not_of(" \t\r\n");
        element = element.substr(first, last - first + 1);
        if (element.empty() || element[0] == '#')
            continue;
        set.tenants.push_back(parseTenant(element));
    }
    recssd_assert(!set.tenants.empty(), "tenant spec: no tenants in '%s'",
                  spec.c_str());
    for (std::size_t i = 0; i < set.tenants.size(); ++i) {
        for (std::size_t j = i + 1; j < set.tenants.size(); ++j) {
            recssd_assert(set.tenants[i].name != set.tenants[j].name,
                          "tenant spec: duplicate tenant name '%s'",
                          set.tenants[i].name.c_str());
        }
    }
    return set;
}

TenantSet
TenantSet::parseFile(const std::string &path)
{
    std::ifstream is(path);
    recssd_assert(is.good(), "tenant spec: cannot read '%s'",
                  path.c_str());
    std::ostringstream joined;
    std::string line;
    while (std::getline(is, line)) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        joined << line << ';';
    }
    return parse(joined.str());
}

TenantSet
TenantSet::load(const std::string &spec)
{
    std::ifstream probe(spec);
    if (probe.good())
        return parseFile(spec);
    return parse(spec);
}

}  // namespace recssd
