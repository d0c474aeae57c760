/**
 * @file
 * Open-loop serving tests: `runServe` with a one-query-per-dispatch
 * batch policy.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

/**
 * A stream draws its queries one at a time, as a lazy series. Each
 * query must still reach the scheduler at the tick, and with the
 * shape, that the whole schedule built up front gave it, rebased on
 * the clock at construction; and the update stream must hold every
 * update that arrives by the last query, as when it was built up to
 * that horizon before the run.
 */
TEST(Serving, StreamSubmitsTheEagerArrivalSchedule)
{
    System sys(test::smallSystem());
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::BaselineSsd;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);
    // Start the stream off tick 0 so the rebase shows.
    const Tick base = 777;
    sys.eq().schedule(base, []() {});
    sys.eq().run();

    ServeConfig cfg = openLoop(300.0, 50, 5, 4);
    cfg.arrivals.process = ArrivalProcess::Bursty;
    cfg.shape.maxBatch = 12;
    cfg.shape.minTables = 1;
    cfg.shape.maxTables = 2;
    cfg.shape.minPoolingScale = 0.5;
    cfg.shape.maxPoolingScale = 1.5;
    cfg.seed = 77;
    cfg.updates.rate = 2000.0;
    cfg.updates.skew = 0.5;

    std::vector<std::pair<Tick, QueryShape>> got;
    ServeStream stream(
        runner, cfg,
        [&](const QueryShape &shape, BatchScheduler::QueryDone done) {
            const Tick now = sys.eq().now();
            got.emplace_back(now, shape);
            done(QueryTimes{now, now, now + 1, false});
        });
    sys.eq().run();

    // Reference: the arrival schedule as it was built before the run
    // (every gap drawn, each followed by its query's shape).
    LoadGenerator gen(cfg.arrivals, cfg.shape, cfg.seed);
    std::vector<std::pair<Tick, QueryShape>> want;
    Tick clock = 0;
    for (unsigned i = 0; i < 55; ++i) {
        clock += gen.nextGap();
        want.emplace_back(clock, gen.nextShape());
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, base + want[i].first) << "query " << i;
        EXPECT_EQ(got[i].second.batchSize, want[i].second.batchSize);
        EXPECT_EQ(got[i].second.tablesTouched,
                  want[i].second.tablesTouched);
        EXPECT_EQ(got[i].second.poolingScale, want[i].second.poolingScale);
    }
    EXPECT_EQ(stream.measureStart(), base + want[5].first);

    // Reference: the update stream as it was built up to the last
    // arrival before the run.
    std::vector<std::uint64_t> rows;
    for (const EmbeddingTableDesc &t : runner.ssdTableDescs())
        rows.push_back(t.rows);
    UpdateStreamSpec us = cfg.updates;
    us.seed = cfg.seed * 0x9e3779b97f4a7c15ull + us.seed;
    UpdateStream updates(us, rows, us.seed);
    std::uint64_t due = 0;
    for (Tick t = updates.nextGap(); t <= want.back().first;
         t += updates.nextGap()) {
        updates.nextRow();
        ++due;
    }
    EXPECT_GT(due, 10u);
    EXPECT_EQ(stream.updates()->submitted(), due);

    StreamStats st;
    stream.summarize(st);
    EXPECT_EQ(st.completedQueries, 50u);
}

TEST(ServingDeathTest, RejectsQueryCountOverflow)
{
    // Warmup plus measured queries must fit the unsigned query count
    // (a tenant's `queries=` reaches the stream unchecked otherwise).
    EXPECT_DEATH(
        {
            System sys(test::smallSystem());
            RunnerOptions opt;
            opt.backend = EmbeddingBackendKind::Dram;
            ModelRunner runner(sys, tinyModel(), opt);
            ServeConfig cfg = openLoop(100.0, 4294967295u, 1, 4);
            ServeStream stream(
                runner, cfg,
                [](const QueryShape &, BatchScheduler::QueryDone) {});
        },
        "1 warmup \\+ 4294967295 measured queries overflow");
}

}  // namespace
}  // namespace recssd
