/**
 * @file
 * Per-phase latency attribution from a recorded trace.
 *
 * Reproduces the paper's Fig 6 / Fig 8 breakdowns from live spans
 * instead of hand-placed counters: for every traced request, each
 * instant of its end-to-end interval is charged to the most specific
 * phase active at that instant (`phasePriority`), so the per-phase
 * times of one request sum to exactly its end-to-end latency — time
 * covered by no span lands in the explicit `other` bucket, which keeps
 * the accounting honest instead of silently complete.
 *
 * The report runs no sweep of its own: it folds the per-span ticks of
 * `RequestSweep` (critical_path.h) by phase, as blame folds them by
 * resource.
 */

#ifndef RECSSD_OBS_ATTRIBUTION_H
#define RECSSD_OBS_ATTRIBUTION_H

#include <iosfwd>
#include <vector>

#include "src/common/types.h"
#include "src/obs/phase.h"
#include "src/obs/tracer.h"

namespace recssd
{

/** Aggregated time-in-phase across the measured requests. */
struct PhaseBreakdownRow
{
    Phase phase = Phase::Other;
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double totalUs = 0.0;
    /** Share of summed end-to-end request time. */
    double fraction = 0.0;
};

struct AttributionReport
{
    /** Phases that appeared, deepest first; zero-time phases omitted. */
    std::vector<PhaseBreakdownRow> rows;
    unsigned requests = 0;
    double meanRequestUs = 0.0;
    double totalRequestUs = 0.0;
    /** Share of request time attributed to a named (non-other) phase. */
    double coverage = 0.0;

    void print(std::ostream &os) const;
    void writeJson(std::ostream &os) const;
};

/** Per-request phase times (exposed for tests and custom reports). */
struct RequestAttribution
{
    std::uint64_t req = 0;
    Tick e2e = 0;
    Tick perPhase[numPhases] = {};
};

/**
 * Attribute one request's interval across phases. Child spans are the
 * request's own plus (for scheduler queries) its fused batch's,
 * clamped to the root interval (see `RequestSweep`).
 */
RequestAttribution attributeRequest(const Tracer &tracer,
                                    const SpanRecord &root);

/**
 * Build the aggregate report over the `RequestSweep` roots: those
 * named `rootName` if any exist ("query" in serve mode), otherwise
 * every root span.
 */
AttributionReport attribute(const Tracer &tracer,
                            const char *rootName = "query");

}  // namespace recssd

#endif  // RECSSD_OBS_ATTRIBUTION_H
