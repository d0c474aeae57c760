#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/obs/tracer.h"  // jsonEscape

namespace recssd
{

namespace
{

/**
 * Print a double the way JSON expects: integral values without an
 * exponent, everything else with enough digits to round-trip.
 */
void
printNumber(std::ostream &os, double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v < 1e15 && v > -1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

}  // namespace

void
StatRegistry::addScalar(const std::string &group, const std::string &name,
                        Getter get)
{
    names_.push_back(group + "." + name);
    getters_.push_back(std::move(get));
}

void
StatRegistry::addCounter(const std::string &group, const std::string &name,
                         const Counter *c)
{
    addScalar(group, name,
              [c] { return static_cast<double>(c->value()); });
}

void
StatRegistry::addGauge(const std::string &group, const std::string &name,
                       const Gauge *g)
{
    addScalar(group, name,
              [g] { return static_cast<double>(g->value()); });
    addScalar(group, name + ".high_water",
              [g] { return static_cast<double>(g->highWater()); });
}

void
StatRegistry::addSample(const std::string &group, const std::string &name,
                        const SampleStat *s)
{
    addScalar(group, name + ".count",
              [s] { return static_cast<double>(s->count()); });
    addScalar(group, name + ".mean", [s] { return s->mean(); });
}

double
StatRegistry::valueOf(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return getters_[i]();
    }
    panic("no stat registered under '%s'", name.c_str());
}

std::vector<double>
StatRegistry::sample() const
{
    std::vector<double> out;
    out.reserve(getters_.size());
    for (const Getter &g : getters_)
        out.push_back(g());
    return out;
}

void
StatRegistry::writeJson(std::ostream &os) const
{
    std::vector<std::size_t> order(names_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return names_[a] < names_[b];
              });
    os << "{";
    bool first = true;
    for (std::size_t i : order) {
        os << (first ? "\n" : ",\n") << "  \"" << jsonEscape(names_[i])
           << "\": ";
        printNumber(os, getters_[i]());
        first = false;
    }
    os << "\n}\n";
}

MetricSampler::MetricSampler(EventQueue &eq, const StatRegistry &registry,
                             Tick interval)
    : eq_(eq), registry_(registry), interval_(interval)
{
    recssd_assert(interval > 0, "sampling interval must be positive");
}

void
MetricSampler::start()
{
    // Sample the initial state and arm the first tick unconditionally:
    // callers start the sampler before scheduling the workload, so the
    // queue may still be empty here. Subsequent ticks only re-arm
    // while other work remains, so the queue always drains.
    sampleNow();
    eq_.scheduleAfter(interval_, [this] { fire(); });
}

void
MetricSampler::sampleNow()
{
    rows_.push_back({eq_.now(), registry_.sample()});
}

void
MetricSampler::finish()
{
    if (!rows_.empty() && rows_.back().ts == eq_.now())
        return;
    sampleNow();
}

void
MetricSampler::fire()
{
    sampleNow();
    // Reschedule only while the simulation has other work: a sampler
    // must never keep an otherwise-drained event queue alive.
    if (eq_.pending() > 0)
        eq_.scheduleAfter(interval_, [this] { fire(); });
}

void
MetricSampler::writeJsonl(std::ostream &os) const
{
    const auto &names = registry_.names();
    for (const MetricRow &row : rows_) {
        os << "{\"ts_us\":";
        printNumber(os, ticksToUs(row.ts));
        // Stats registered after a row was sampled (e.g. the
        // serve.update.* scalars added at end of run) have no value in
        // that row — emit only the columns that existed at sample
        // time. Reading past row.values would export uninitialized
        // memory and break the two-run reproducibility audit.
        std::size_t cols = std::min(names.size(), row.values.size());
        for (std::size_t i = 0; i < cols; ++i) {
            os << ",\"" << jsonEscape(names[i]) << "\":";
            printNumber(os, row.values[i]);
        }
        os << "}\n";
    }
}

void
MetricSampler::writeCsv(std::ostream &os) const
{
    const auto &names = registry_.names();
    os << "ts_us";
    for (const std::string &n : names)
        os << "," << n;
    os << "\n";
    for (const MetricRow &row : rows_) {
        printNumber(os, ticksToUs(row.ts));
        for (double v : row.values) {
            os << ",";
            printNumber(os, v);
        }
        // Columns registered after this row was sampled: empty cells
        // (the stat did not exist yet), never uninitialized reads.
        for (std::size_t i = row.values.size(); i < names.size(); ++i)
            os << ",";
        os << "\n";
    }
}

}  // namespace recssd
