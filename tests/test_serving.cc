/**
 * @file
 * Open-loop serving tests: `runServe` with a one-query-per-dispatch
 * batch policy.
 */

#include <gtest/gtest.h>

#include "src/reco/serving.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.name = "tiny";
    m.tables = {TableGroup{2, 50'000, 16, 8}};
    m.denseInputs = 8;
    m.bottomMlp = {16, 8};
    m.topMlp = {32, 1};
    m.embeddingDominated = true;
    return m;
}

/** Poisson arrivals of `batch`-sample queries, one query per fused
 *  batch: no coalescing and no in-flight cap. */
ServeConfig
openLoop(double qps, unsigned queries, unsigned warmup, unsigned batch)
{
    ServeConfig cfg;
    cfg.arrivals.qps = qps;
    cfg.shape.minBatch = batch;
    cfg.shape.maxBatch = batch;
    cfg.batching.maxBatchSamples = batch;
    cfg.batching.maxWait = 0;
    cfg.batching.maxInFlight = ~0u;
    cfg.queries = queries;
    cfg.warmupQueries = warmup;
    return cfg;
}

TEST(Serving, CompletesAllQueriesAndReportsStats)
{
    System sys(test::smallSystem());
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::BaselineSsd;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);

    ServeStats stats = runServe(runner, openLoop(200.0, 40, 5, 4));

    EXPECT_GT(stats.meanLatencyUs, 0.0);
    EXPECT_GE(stats.maxLatencyUs, stats.meanLatencyUs);
    EXPECT_LE(stats.p50Us, stats.p99Us + 1.0);
    EXPECT_GT(stats.achievedQps, 0.0);
    EXPECT_GE(stats.sloAttainment, 0.0);
    EXPECT_LE(stats.sloAttainment, 1.0);
}

TEST(Serving, OverloadInflatesLatency)
{
    double mean[2];
    double rates[2] = {20.0, 2000.0};
    for (int i = 0; i < 2; ++i) {
        System sys(test::smallSystem());
        RunnerOptions opt;
        opt.backend = EmbeddingBackendKind::BaselineSsd;
        opt.forceAllTablesOnSsd = true;
        ModelRunner runner(sys, tinyModel(), opt);
        mean[i] =
            runServe(runner, openLoop(rates[i], 30, 3, 4)).meanLatencyUs;
    }
    EXPECT_GT(mean[1], mean[0] * 1.5)
        << "queueing delay must appear beyond the service rate";
}

TEST(Serving, SloAccountingConsistent)
{
    System sys(test::smallSystem());
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Dram;
    ModelRunner runner(sys, tinyModel(), opt);
    ServeConfig cfg = openLoop(100.0, 20, 2, 4);
    cfg.latencySlo = 1 * sec;  // generous: everything meets it
    auto stats = runServe(runner, cfg);
    EXPECT_DOUBLE_EQ(stats.sloAttainment, 1.0);

    System sys2(test::smallSystem());
    ModelRunner runner2(sys2, tinyModel(), opt);
    cfg.latencySlo = 1 * nsec;  // impossible
    auto stats2 = runServe(runner2, cfg);
    EXPECT_DOUBLE_EQ(stats2.sloAttainment, 0.0);
}

TEST(Serving, DeterministicForSeed)
{
    double means[2];
    for (int i = 0; i < 2; ++i) {
        System sys(test::smallSystem());
        RunnerOptions opt;
        opt.backend = EmbeddingBackendKind::BaselineSsd;
        opt.forceAllTablesOnSsd = true;
        ModelRunner runner(sys, tinyModel(), opt);
        ServeConfig cfg = openLoop(150.0, 25, 2, 4);
        cfg.seed = 1234;
        means[i] = runServe(runner, cfg).meanLatencyUs;
    }
    EXPECT_DOUBLE_EQ(means[0], means[1]);
}

TEST(Serving, OneQueryPerDispatch)
{
    // Overloaded, so queries overlap: the policy must still launch
    // every query (warmup included) as its own fused batch.
    System sys(test::smallSystem());
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::BaselineSsd;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);
    ServeStats stats = runServe(runner, openLoop(2000.0, 30, 3, 4));
    EXPECT_EQ(stats.batchesDispatched, 33u);
    EXPECT_DOUBLE_EQ(stats.avgCoalescedSamples, 4.0);
    EXPECT_EQ(stats.completedQueries, 30u);
    EXPECT_EQ(stats.maxSchedulerDepth, 1u);
}

}  // namespace
}  // namespace recssd
