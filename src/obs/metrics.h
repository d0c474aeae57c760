/**
 * @file
 * Machine-readable metrics: a registry of named scalars plus a
 * sim-time sampler.
 *
 * `StatRegistry` maps hierarchical names ("ftl.gc_pages_moved") to
 * getter functions over the live stat objects the components already
 * own; registration order is preserved so every export is
 * deterministic. `System` builds one registry over all subsystems.
 *
 * `MetricSampler` polls the registry at a fixed simulated interval by
 * scheduling itself on the event queue, recording one row per sample
 * point. Because it only reschedules while other events remain
 * pending, `EventQueue::run()` still drains. Rows export as JSONL (one
 * object per line, `ts_us` first) or CSV for plotting time series of
 * queue depths, cache hits, GC activity, etc. against sim time.
 */

#ifndef RECSSD_OBS_METRICS_H
#define RECSSD_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/types.h"

namespace recssd
{

class Counter;
class SampleStat;
class Gauge;

/** Ordered collection of named scalar getters over live stats. */
class StatRegistry
{
  public:
    using Getter = std::function<double()>;

    /** Register a scalar under `group.name`. Order is preserved.
     *  Registrations must dominate the sampler's first touch within a
     *  body and may never run from a deferred event (sim-lint R6):
     *  rows are positional, so a late column makes earlier rows
     *  narrower than the name list. */
    void addScalar(const std::string &group, const std::string &name,
                   Getter get) RECSSD_STAT_REGISTRATION;

    /** @{ Conveniences over the common stat types (not owned). */
    void addCounter(const std::string &group, const std::string &name,
                    const Counter *c) RECSSD_STAT_REGISTRATION;
    void addGauge(const std::string &group, const std::string &name,
                  const Gauge *g) RECSSD_STAT_REGISTRATION;
    /** Registers `<name>.count` and `<name>.mean`. */
    void addSample(const std::string &group, const std::string &name,
                   const SampleStat *s) RECSSD_STAT_REGISTRATION;
    /** @} */

    std::size_t size() const { return names_.size(); }
    const std::vector<std::string> &names() const { return names_; }

    /** Evaluate every getter, in registration order. */
    std::vector<double> sample() const RECSSD_REGISTRY_SAMPLING;

    /**
     * Evaluate the getter registered under `name` (linear scan;
     * audit/test use only). Asserts the name exists.
     */
    double valueOf(const std::string &name) const RECSSD_REGISTRY_SAMPLING;

    /**
     * Dump all current values as one JSON object, keys sorted
     * lexicographically so output is diffable run to run.
     */
    void writeJson(std::ostream &os) const RECSSD_REGISTRY_SAMPLING;

  private:
    std::vector<std::string> names_;
    std::vector<Getter> getters_;
};

/** One row of the sampled time series. */
struct MetricRow
{
    Tick ts = 0;
    std::vector<double> values;  ///< parallel to registry names
};

class MetricSampler
{
  public:
    /** @param interval Sim time between samples; must be > 0. */
    MetricSampler(EventQueue &eq, const StatRegistry &registry,
                  Tick interval);

    MetricSampler(const MetricSampler &) = delete;
    MetricSampler &operator=(const MetricSampler &) = delete;

    /**
     * Take a first sample now and keep sampling every `interval` ticks
     * for as long as the simulation has other work pending.
     */
    void start() RECSSD_REGISTRY_SAMPLING;

    /** Take one sample immediately (also used for a final snapshot). */
    void sampleNow() RECSSD_REGISTRY_SAMPLING;

    /**
     * Close the series at simulation end: emit one final sample unless
     * the last row already sits at the current tick. Without this the
     * final partial interval is silently dropped — a run shorter than
     * one interval would export only the t=0 snapshot. Idempotent, so
     * harnesses that drain the queue repeatedly stay duplicate-free.
     */
    void finish();

    const std::vector<MetricRow> &rows() const { return rows_; }

    /** One JSON object per line; `ts_us` first, then every metric.
     *  Indexed reads are clamped to each row's own width (sim-lint
     *  R6): rows sampled before a late registration are narrower than
     *  the registry's final name list. */
    void writeJsonl(std::ostream &os) const RECSSD_REGISTRY_SAMPLING;

    /** Header row of `ts_us` + metric names, then one row per sample.
     *  Missing (late-registered) cells render empty. */
    void writeCsv(std::ostream &os) const RECSSD_REGISTRY_SAMPLING;

  private:
    void fire();

    EventQueue &eq_;
    const StatRegistry &registry_;
    Tick interval_;
    std::vector<MetricRow> rows_;
};

}  // namespace recssd

#endif  // RECSSD_OBS_METRICS_H
