/**
 * @file
 * Serve-mode SLO monitoring: windowed quantiles + error-budget burn.
 *
 * A single end-of-run attainment number hides exactly the thing an
 * operator pages on: a five-window brownout inside an otherwise
 * healthy run. The monitor buckets measured query completions into
 * tumbling windows of simulated time and computes, per window, the
 * attainment against the latency target, nearest-rank p50/p99, and
 * the error-budget burn rate — the SRE convention
 * (1 - attainment) / (1 - objective), so burn 1.0 means "spending
 * budget exactly as provisioned", burn 10 means "budget gone in a
 * tenth of the period". A `ServeStream` feeds it when
 * `ServeConfig::slo.enabled` is set and surfaces the series in its
 * `StreamStats`; `runServe` also registers it in the stat registry
 * (so stats JSON and the metric sampler can export it). Default runs
 * never construct one.
 */

#ifndef RECSSD_OBS_SLO_MONITOR_H
#define RECSSD_OBS_SLO_MONITOR_H

#include <vector>

#include "src/common/types.h"

namespace recssd
{

/** Serve-mode SLO monitoring knobs (disabled by default). */
struct SloConfig
{
    bool enabled = false;
    /** Latency target one query either meets or misses. */
    Tick target = 50 * msec;
    /** Fraction of queries expected within target (the objective);
     *  must be in (0, 1). */
    double objective = 0.99;
    /** Tumbling window width over completion time. */
    Tick window = 10 * msec;
};

class SloMonitor
{
  public:
    /** One closed window of the attainment series. */
    struct Window
    {
        Tick start = 0;  ///< window start (multiple of config.window)
        unsigned queries = 0;
        unsigned met = 0;
        double p50Us = 0.0;
        double p99Us = 0.0;

        double
        attainment() const
        {
            return queries ? static_cast<double>(met) / queries : 1.0;
        }
    };

    explicit SloMonitor(const SloConfig &config);

    /** Feed one measured query (called in completion-time order). */
    void record(Tick completion, Tick latency);

    /** Close the trailing partial window (idempotent). */
    void finish();

    /** Closed windows in completion-time order; empty ones skipped. */
    const std::vector<Window> &windows() const { return windows_; }

    const SloConfig &config() const { return config_; }

    unsigned totalQueries() const { return totalQueries_; }

    /** Whole-run attainment over every recorded query. */
    double overallAttainment() const;

    /** Error-budget burn rate: (1 - attainment) / (1 - objective). */
    double burnRate(double attainment) const;
    double overallBurnRate() const { return burnRate(overallAttainment()); }

    /** Largest per-window burn rate seen (0 with no windows). */
    double worstWindowBurnRate() const;

  private:
    void closeWindow();

    SloConfig config_;
    std::vector<Window> windows_;
    /** Current (open) window accumulators. */
    bool open_ = false;
    Tick curStart_ = 0;
    unsigned curMet_ = 0;
    std::vector<double> curLatUs_;
    unsigned totalQueries_ = 0;
    unsigned totalMet_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_OBS_SLO_MONITOR_H
