/**
 * @file
 * Seeded online embedding-update stream.
 *
 * Production recommenders continuously push retrained rows while
 * serving reads. This generator models that write path as an open-loop
 * Poisson stream of per-row delta writes: a configurable aggregate
 * rate, a Zipf row-popularity skew (retraining touches hot rows more
 * often), and row targets spread across the model's tables in
 * proportion to their row counts. The stream owns its Rng, so enabling
 * updates never perturbs the query-arrival sequence of the same seed.
 */

#ifndef RECSSD_LOAD_UPDATE_STREAM_H
#define RECSSD_LOAD_UPDATE_STREAM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace recssd
{

/**
 * Legal nonzero update rates, rows per simulated second. Far below the
 * floor the mean gap overflows a Tick; above the ceiling it is under
 * one tick, so `next()` would clamp it and deliver a lower rate.
 */
constexpr double minUpdateRate = 1e-6;
constexpr double maxUpdateRate = 1e9;

/** Configuration of the online-update stream (off by default). */
struct UpdateStreamSpec
{
    /** Aggregate update rate, rows per simulated second; 0 = off,
     *  otherwise in [minUpdateRate, maxUpdateRate]. */
    double rate = 0.0;
    /** Zipf skew of updated rows within a table; 0 = uniform. */
    double skew = 0.0;
    /** Row updates coalesced into one flushed write batch. */
    unsigned flushRows = 8;
    /** Flush timeout: the oldest pending update never waits longer. */
    Tick maxWait = 500 * usec;
    /** Concurrent flushes in flight before the stream backpressures. */
    unsigned maxInFlight = 2;
    /** Stream seed (combined with the serve seed by the flusher). */
    std::uint64_t seed = 1;
    /** Owning tenant (index into the run's `TenantSet`). The
     *  multi-tenant harness charges this tenant's QoS limit budget for
     *  every flush, so a mixed read-write antagonist is throttled by
     *  the same share triple as its reads. Single-tenant harnesses
     *  leave it 0 and never read it. */
    std::uint32_t tenant = 0;

    bool enabled() const { return rate > 0.0; }
};

/** One generated row update. */
struct UpdateDesc
{
    /** Index into the caller's table list (not the table id). */
    std::uint32_t tableIdx = 0;
    /** Table-local row to rewrite. */
    RowId row = 0;
};

/**
 * Deterministic generator for the stream: Poisson inter-arrivals at
 * `spec.rate`, table choice weighted by row count, row choice Zipf-
 * skewed (rank 0 hottest) or uniform. Update `i` arrives `nextGap()`
 * after update `i - 1` (the first, after tick 0) and rewrites the
 * `nextRow()` drawn right after that gap.
 */
class UpdateStream
{
  public:
    /** `tableRows[i]` is the row count of the caller's i-th table. */
    UpdateStream(const UpdateStreamSpec &spec,
                 std::vector<std::uint64_t> tableRows, std::uint64_t seed);

    /** Next inter-arrival gap in ticks (>= 1). */
    Tick nextGap();

    /** Draw the next update's target row. */
    UpdateDesc nextRow();

  private:
    UpdateStreamSpec spec_;
    std::vector<std::uint64_t> tableRows_;
    std::vector<std::uint64_t> cumRows_;  ///< inclusive prefix sums
    Rng rng_;
    /** Per-table samplers, built only when skew > 0; tables with the
     *  same row count share one. */
    std::vector<std::shared_ptr<const ZipfSampler>> zipf_;
    double meanGapNs_;
};

}  // namespace recssd

#endif  // RECSSD_LOAD_UPDATE_STREAM_H
