/**
 * @file
 * Open-loop load generation.
 *
 * DeepRecSys-style traffic synthesis (Gupta et al., the serving
 * infrastructure RecSSD's models come from): queries arrive on a
 * configurable arrival process — Poisson, fixed interval, or a bursty
 * hyperexponential whose coefficient of variation is a knob — and each
 * query independently draws its own shape (samples per query, tables
 * touched, pooling-factor scale). Everything is deterministic from the
 * seed so serving experiments replay exactly.
 */

#ifndef RECSSD_LOAD_LOAD_GEN_H
#define RECSSD_LOAD_LOAD_GEN_H

#include <cstdint>

#include "src/common/random.h"
#include "src/common/types.h"

namespace recssd
{

/** Inter-arrival time process of the open-loop generator. */
enum class ArrivalProcess
{
    Fixed,    ///< deterministic gaps of exactly 1/qps (CoV 0)
    Poisson,  ///< exponential gaps (CoV 1): independent user traffic
    Bursty,   ///< hyperexponential gaps (CoV > 1): flash-crowd traffic
};

/** Slowest legal arrival rate: one query per ~11.6 simulated days. */
constexpr double minQps = 1e-6;

struct ArrivalSpec
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    /** Mean arrival rate (queries per simulated second), >= minQps. */
    double qps = 100.0;
    /**
     * Bursty: burst factor B >= 1. Gaps are drawn from a two-phase
     * hyperexponential with mean 1/qps whose short phase is B times
     * faster than the mean; B = 1 degenerates to Poisson, larger B
     * raises the coefficient of variation monotonically.
     */
    double burstiness = 4.0;
};

/** Per-query work shape drawn by the generator. */
struct QueryShape
{
    /** Samples (inference requests) in this query. */
    unsigned batchSize = 16;
    /** Embedding tables the query touches (capped at the model). */
    unsigned tablesTouched = ~0u;
    /** Multiplier on every table's lookups-per-sample. */
    double poolingScale = 1.0;
    /** Owning tenant (index into the run's `TenantSet`); 0 for
     *  single-tenant harnesses, which never read it. */
    std::uint32_t tenantId = 0;
    /** Observability: trace request id for this query's execution
     *  (assigned by the batch scheduler; 0 = allocate fresh). */
    std::uint64_t traceId = 0;
};

/** Distribution the per-query shapes are drawn from (all uniform). */
struct QueryShapeSpec
{
    unsigned minBatch = 8;
    unsigned maxBatch = 8;
    /** 0 = touch every table the model has. */
    unsigned minTables = 0;
    unsigned maxTables = 0;
    double minPoolingScale = 1.0;
    double maxPoolingScale = 1.0;
};

/**
 * Query `i` arrives `nextGap()` after query `i - 1` (the first, after
 * tick 0), and its shape is the `nextShape()` drawn right after that
 * gap.
 */
class LoadGenerator
{
  public:
    LoadGenerator(const ArrivalSpec &arrivals, const QueryShapeSpec &shape,
                  std::uint64_t seed);

    /** Stamp every generated shape with `tenant` (multi-tenant
     *  harnesses; the default 0 leaves single-tenant runs untouched). */
    void setTenant(std::uint32_t tenant) { tenant_ = tenant; }

    /** Next inter-arrival gap in ticks (>= 1). */
    Tick nextGap();

    /** Draw one query shape. */
    QueryShape nextShape();

  private:
    ArrivalSpec arrivals_;
    QueryShapeSpec shape_;
    Rng rng_;
    double meanGapNs_;
    std::uint32_t tenant_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_LOAD_LOAD_GEN_H
