/**
 * @file
 * Load-generator statistics: the arrival processes must actually have
 * the first and second moments they advertise, and the whole stream
 * must replay bit-identically from the seed.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/load/latency_recorder.h"
#include "src/load/load_gen.h"

namespace recssd
{
namespace
{

constexpr unsigned kDraws = 20'000;

struct GapMoments
{
    double mean;
    double cov;  ///< coefficient of variation (stddev / mean)
};

/** One generated query: when it arrives and what it asks for. */
struct Query
{
    Tick arrival = 0;
    QueryShape shape;
};

/** `count` queries, each a gap after the last, then its shape. */
std::vector<Query>
schedule(LoadGenerator &gen, unsigned count)
{
    std::vector<Query> out;
    Tick now = 0;
    for (unsigned i = 0; i < count; ++i) {
        now += gen.nextGap();
        out.push_back(Query{now, gen.nextShape()});
    }
    return out;
}

GapMoments
momentsOf(LoadGenerator &gen, unsigned draws)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (unsigned i = 0; i < draws; ++i) {
        auto gap = static_cast<double>(gen.nextGap());
        sum += gap;
        sum_sq += gap * gap;
    }
    double mean = sum / draws;
    double var = sum_sq / draws - mean * mean;
    return {mean, std::sqrt(std::max(0.0, var)) / mean};
}

ArrivalSpec
spec(ArrivalProcess process, double qps, double burst = 4.0)
{
    ArrivalSpec a;
    a.process = process;
    a.qps = qps;
    a.burstiness = burst;
    return a;
}

TEST(LoadGen, PoissonMeanMatchesRate)
{
    const double qps = 1000.0;  // mean gap 1ms = 1e6 ticks
    LoadGenerator gen(spec(ArrivalProcess::Poisson, qps),
                      QueryShapeSpec{}, 7);
    auto m = momentsOf(gen, kDraws);
    double expected = static_cast<double>(sec) / qps;
    EXPECT_NEAR(m.mean, expected, 0.03 * expected)
        << "Poisson inter-arrival mean must track 1/lambda";
    EXPECT_NEAR(m.cov, 1.0, 0.1)
        << "exponential gaps have CoV 1";
}

TEST(LoadGen, FixedIntervalIsDeterministic)
{
    LoadGenerator gen(spec(ArrivalProcess::Fixed, 500.0),
                      QueryShapeSpec{}, 7);
    auto m = momentsOf(gen, 1000);
    EXPECT_DOUBLE_EQ(m.mean, static_cast<double>(sec) / 500.0);
    EXPECT_DOUBLE_EQ(m.cov, 0.0);
}

TEST(LoadGen, BurstinessKnobRaisesCoV)
{
    double cov_by_burst[3];
    double bursts[3] = {1.0, 4.0, 16.0};
    for (int i = 0; i < 3; ++i) {
        LoadGenerator gen(
            spec(ArrivalProcess::Bursty, 200.0, bursts[i]),
            QueryShapeSpec{}, 11);
        auto m = momentsOf(gen, kDraws);
        cov_by_burst[i] = m.cov;
        // The hyperexponential preserves the configured mean at every
        // burst factor.
        double expected = static_cast<double>(sec) / 200.0;
        EXPECT_NEAR(m.mean, expected, 0.10 * expected)
            << "burst " << bursts[i];
    }
    EXPECT_NEAR(cov_by_burst[0], 1.0, 0.1)
        << "burstiness 1 degenerates to Poisson";
    EXPECT_GT(cov_by_burst[1], cov_by_burst[0] * 1.5);
    EXPECT_GT(cov_by_burst[2], cov_by_burst[1] * 1.2)
        << "CoV must grow monotonically with the burst factor";
}

TEST(LoadGen, IdenticalSeedsReplayIdenticalStreams)
{
    QueryShapeSpec shape;
    shape.minBatch = 1;
    shape.maxBatch = 32;
    shape.minTables = 1;
    shape.maxTables = 8;
    shape.minPoolingScale = 0.5;
    shape.maxPoolingScale = 2.0;

    LoadGenerator a(spec(ArrivalProcess::Bursty, 100.0), shape, 99);
    LoadGenerator b(spec(ArrivalProcess::Bursty, 100.0), shape, 99);
    auto sa = schedule(a, 500);
    auto sb = schedule(b, 500);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].arrival, sb[i].arrival) << "query " << i;
        EXPECT_EQ(sa[i].shape.batchSize, sb[i].shape.batchSize);
        EXPECT_EQ(sa[i].shape.tablesTouched, sb[i].shape.tablesTouched);
        EXPECT_DOUBLE_EQ(sa[i].shape.poolingScale,
                         sb[i].shape.poolingScale);
    }

    LoadGenerator c(spec(ArrivalProcess::Bursty, 100.0), shape, 100);
    auto sc = schedule(c, 500);
    bool differs = false;
    for (std::size_t i = 0; i < sc.size() && !differs; ++i)
        differs = sc[i].arrival != sa[i].arrival;
    EXPECT_TRUE(differs) << "different seeds must not replay";
}

TEST(LoadGen, ShapesStayWithinConfiguredRanges)
{
    QueryShapeSpec shape;
    shape.minBatch = 4;
    shape.maxBatch = 12;
    shape.minTables = 2;
    shape.maxTables = 5;
    shape.minPoolingScale = 0.25;
    shape.maxPoolingScale = 1.75;
    LoadGenerator gen(spec(ArrivalProcess::Poisson, 100.0), shape, 3);
    bool batch_lo = false;
    bool batch_hi = false;
    for (int i = 0; i < 2000; ++i) {
        QueryShape s = gen.nextShape();
        ASSERT_GE(s.batchSize, 4u);
        ASSERT_LE(s.batchSize, 12u);
        ASSERT_GE(s.tablesTouched, 2u);
        ASSERT_LE(s.tablesTouched, 5u);
        ASSERT_GE(s.poolingScale, 0.25);
        ASSERT_LE(s.poolingScale, 1.75);
        batch_lo |= s.batchSize == 4;
        batch_hi |= s.batchSize == 12;
    }
    EXPECT_TRUE(batch_lo && batch_hi)
        << "uniform batch draw must reach both range endpoints";
}

TEST(LoadGen, DefaultShapeTouchesAllTables)
{
    LoadGenerator gen(spec(ArrivalProcess::Poisson, 100.0),
                      QueryShapeSpec{}, 3);
    QueryShape s = gen.nextShape();
    EXPECT_EQ(s.tablesTouched, ~0u);
    EXPECT_DOUBLE_EQ(s.poolingScale, 1.0);
}

TEST(LoadGen, GapsAreAlwaysPositive)
{
    // Even at absurd rates the generator must advance time.
    LoadGenerator gen(spec(ArrivalProcess::Poisson, 1e12),
                      QueryShapeSpec{}, 5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GE(gen.nextGap(), 1u);
}

// ---- nearest-rank percentile edge cases (tail reporting relies on
// ---- p999/max being exact, not interpolated) --------------------

TEST(LatencyRecorderPercentiles, SingleSampleIsEveryPercentile)
{
    LatencyRecorder r;
    r.record(42 * usec);
    EXPECT_EQ(r.percentile(0.50), 42 * usec);
    EXPECT_EQ(r.percentile(0.99), 42 * usec);
    EXPECT_EQ(r.percentile(0.999), 42 * usec);
    EXPECT_EQ(r.percentile(1.0), 42 * usec);
    EXPECT_DOUBLE_EQ(r.maxUs(), r.percentileUs(1.0));
}

TEST(LatencyRecorderPercentiles, TwoSamplesSplitAtTheMedian)
{
    LatencyRecorder r;
    r.record(10 * usec);
    r.record(20 * usec);
    // Nearest rank: ceil(0.5 * 2) = 1 -> the smaller sample.
    EXPECT_EQ(r.percentile(0.50), 10 * usec);
    // Anything past 0.5 rounds up to rank 2.
    EXPECT_EQ(r.percentile(0.51), 20 * usec);
    EXPECT_EQ(r.percentile(0.999), 20 * usec);
}

TEST(LatencyRecorderPercentiles, P999DistinguishesRank999From1000)
{
    // 1000 distinct samples 1..1000 us: p999 must be the 999th
    // smallest (ceil(0.999 * 1000) = 999), NOT the max.
    LatencyRecorder r;
    for (int i = 1000; i >= 1; --i)  // reverse: order-independent
        r.record(Tick(i) * usec);
    EXPECT_EQ(r.percentile(0.999), 999 * usec);
    EXPECT_EQ(r.percentile(1.0), 1000 * usec);
    EXPECT_DOUBLE_EQ(r.maxUs(), 1000.0);
    EXPECT_EQ(r.percentile(0.50), 500 * usec);
    EXPECT_EQ(r.percentile(0.99), 990 * usec);
}

TEST(LatencyRecorderPercentiles, P999OnSmallCountsRoundsToMax)
{
    // With n < 1000, ceil(0.999 * n) = n: p999 equals the max.
    LatencyRecorder r;
    for (int i = 1; i <= 999; ++i)
        r.record(Tick(i) * usec);
    EXPECT_EQ(r.percentile(0.999), 999 * usec);
}

TEST(LatencyRecorderPercentiles, DuplicatesAndEmptyRecorder)
{
    LatencyRecorder empty;
    EXPECT_EQ(empty.percentile(0.999), 0u);
    EXPECT_DOUBLE_EQ(empty.maxUs(), 0.0);

    LatencyRecorder r;
    for (int i = 0; i < 10; ++i)
        r.record(5 * usec);
    EXPECT_EQ(r.percentile(0.50), 5 * usec);
    EXPECT_EQ(r.percentile(0.999), 5 * usec);
}

}  // namespace
}  // namespace recssd
