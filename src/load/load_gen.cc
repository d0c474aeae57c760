#include "src/load/load_gen.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace recssd
{

namespace
{

/** Probability of the fast (burst) phase of the hyperexponential. */
constexpr double burstShortProb = 0.9;

}  // namespace

LoadGenerator::LoadGenerator(const ArrivalSpec &arrivals,
                             const QueryShapeSpec &shape, std::uint64_t seed)
    : arrivals_(arrivals), shape_(shape), rng_(seed)
{
    recssd_assert(arrivals_.qps >= minQps, "arrival rate below %g qps",
                  minQps);
    recssd_assert(arrivals_.burstiness >= 1.0,
                  "burstiness below 1 would be smoother than Poisson");
    recssd_assert(shape_.minBatch >= 1 && shape_.minBatch <= shape_.maxBatch,
                  "bad batch-size range");
    recssd_assert(shape_.minTables <= shape_.maxTables,
                  "bad tables-touched range");
    recssd_assert(shape_.minPoolingScale > 0.0 &&
                      shape_.minPoolingScale <= shape_.maxPoolingScale,
                  "bad pooling-scale range");
    meanGapNs_ = static_cast<double>(sec) / arrivals_.qps;
}

Tick
LoadGenerator::nextGap()
{
    double gap_ns = meanGapNs_;
    switch (arrivals_.process) {
      case ArrivalProcess::Fixed:
        break;
      case ArrivalProcess::Poisson:
        gap_ns = rng_.exponential(meanGapNs_);
        break;
      case ArrivalProcess::Bursty: {
        // Two-phase hyperexponential with overall mean preserved: a
        // short phase B times faster than the mean and a long phase
        // stretched to compensate. B = 1 collapses both phases onto
        // the mean, i.e. a plain Poisson process.
        double b = arrivals_.burstiness;
        double short_mean = meanGapNs_ / b;
        double long_mean = meanGapNs_ *
                           (1.0 - burstShortProb / b) /
                           (1.0 - burstShortProb);
        gap_ns = rng_.bernoulli(burstShortProb)
                     ? rng_.exponential(short_mean)
                     : rng_.exponential(long_mean);
        break;
      }
    }
    return std::max<Tick>(1, static_cast<Tick>(gap_ns));
}

QueryShape
LoadGenerator::nextShape()
{
    QueryShape s;
    s.tenantId = tenant_;
    s.batchSize = static_cast<unsigned>(
        rng_.uniformRange(shape_.minBatch, shape_.maxBatch));
    if (shape_.maxTables == 0) {
        s.tablesTouched = ~0u;
    } else {
        s.tablesTouched = static_cast<unsigned>(
            rng_.uniformRange(shape_.minTables, shape_.maxTables));
    }
    if (shape_.minPoolingScale == shape_.maxPoolingScale) {
        s.poolingScale = shape_.minPoolingScale;
    } else {
        s.poolingScale = shape_.minPoolingScale +
                         rng_.uniformDouble() * (shape_.maxPoolingScale -
                                                 shape_.minPoolingScale);
    }
    return s;
}

}  // namespace recssd
