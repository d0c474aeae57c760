/**
 * @file
 * The determinism contract, end to end: a seeded run is a pure
 * function of its config.  Two freshly constructed systems driven
 * through the batched serving path with identical seeds must emit
 * byte-identical stats JSON, metrics JSONL and Chrome trace artifacts
 * -- single-SSD and multi-SSD sharded alike.  A second set of tests
 * turns on RECSSD_AUDIT and proves the deep runtime invariants (event
 * pop order, FTL L2P bijection after GC, aggregate-stat consistency)
 * hold on the same workloads without perturbing a single output byte.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "src/fault/fault_plan.h"
#include "src/flash/flash_array.h"
#include "src/ftl/ftl.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/reco/model_runner.h"
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

ServeConfig
smallServe()
{
    ServeConfig cfg;
    cfg.arrivals.process = ArrivalProcess::Poisson;
    cfg.arrivals.qps = 2'000.0;
    cfg.shape.minBatch = 4;
    cfg.shape.maxBatch = 8;
    cfg.batching.maxBatchSamples = 16;
    cfg.batching.maxWait = 200 * usec;
    cfg.batching.maxInFlight = 2;
    cfg.queries = 30;
    cfg.warmupQueries = 4;
    cfg.seed = 7;
    return cfg;
}

/** Every artifact a run exports, captured as raw bytes. */
struct Artifacts
{
    std::string statsJson;
    std::string metricsJsonl;
    std::string trace;
};

/**
 * Build a fresh system, serve the fixed workload on the ndp backend,
 * and capture every export exactly the way `recssd_sim` writes it
 * (final sampler snapshot before the JSONL dump).
 */
Artifacts
runOnce(unsigned num_ssds, ShardPolicy policy)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = num_ssds;
    cfg.shard.policy = policy;
    System sys(cfg);
    sys.enableTracing();
    MetricSampler &sampler = sys.startMetricSampler(50 * usec);

    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);
    ServeStats stats = runServe(runner, smallServe());
    EXPECT_EQ(stats.completedQueries, smallServe().queries);

    Artifacts out;
    std::ostringstream stats_os, metrics_os, trace_os;
    sys.dumpStatsJson(stats_os);
    sampler.sampleNow();
    sampler.writeJsonl(metrics_os);
    sys.tracer().writeChromeTrace(trace_os);
    out.statsJson = stats_os.str();
    out.metricsJsonl = metrics_os.str();
    out.trace = trace_os.str();
    return out;
}

/**
 * Like runOnce but with the full tail-tolerance machinery live: a
 * 3-device replicated system, a fault plan (periodic die stalls on
 * one device, a dropout on another mid-run), auto-quantile hedging
 * and a deadline. Every nondeterminism hazard the subsystem adds —
 * injector RNG, hedge timers racing completions, failover paths,
 * degraded fills — funnels through the same artifact dump.
 */
Artifacts
runFaultedOnce()
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 3;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.shard.replication = 2;
    applyFaultPlan(cfg,
                   FaultPlan::parse("stall@1:at=2ms,dur=2ms,period=3ms,"
                                    "count=4; dropout@2:at=8ms"));
    System sys(cfg);
    sys.enableTracing();
    MetricSampler &sampler = sys.startMetricSampler(50 * usec);

    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    opt.resil.deadline = 30 * msec;
    opt.resil.hedge.mode = HedgeMode::Auto;
    opt.resil.hedge.fixedDelay = 1 * msec;
    opt.resil.hedge.minSamples = 16;
    ModelRunner runner(sys, tinyModel(), opt);
    ServeStats stats = runServe(runner, smallServe());
    EXPECT_EQ(stats.completedQueries, smallServe().queries);

    Artifacts out;
    std::ostringstream stats_os, metrics_os, trace_os;
    sys.dumpStatsJson(stats_os);
    sampler.sampleNow();
    sampler.writeJsonl(metrics_os);
    sys.tracer().writeChromeTrace(trace_os);
    out.statsJson = stats_os.str();
    out.metricsJsonl = metrics_os.str();
    out.trace = trace_os.str();
    return out;
}

void
expectIdentical(const Artifacts &a, const Artifacts &b)
{
    // EXPECT_EQ on std::string is a byte compare; a mismatch prints
    // the first differing position.
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.metricsJsonl, b.metricsJsonl);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_FALSE(a.statsJson.empty());
    EXPECT_FALSE(a.metricsJsonl.empty());
    EXPECT_FALSE(a.trace.empty());
}

/** Scoped RECSSD_AUDIT=1 (components cache it at construction). */
class ScopedAudit
{
  public:
    ScopedAudit() { ::setenv("RECSSD_AUDIT", "1", 1); }
    ~ScopedAudit() { ::unsetenv("RECSSD_AUDIT"); }
};

TEST(Determinism, SingleSsdServeIsByteIdentical)
{
    Artifacts first = runOnce(1, ShardPolicy::TableHash);
    Artifacts second = runOnce(1, ShardPolicy::TableHash);
    expectIdentical(first, second);
}

TEST(Determinism, ShardedServeIsByteIdentical)
{
    Artifacts first = runOnce(2, ShardPolicy::RowRange);
    Artifacts second = runOnce(2, ShardPolicy::RowRange);
    expectIdentical(first, second);
}

TEST(Determinism, FaultedHedgedServeIsByteIdentical)
{
    Artifacts first = runFaultedOnce();
    Artifacts second = runFaultedOnce();
    expectIdentical(first, second);
    // The faulted run must actually differ from the clean one (the
    // injector fired), not silently no-op into it.
    Artifacts clean = runOnce(3, ShardPolicy::RowRange);
    EXPECT_NE(first.statsJson, clean.statsJson);
}

TEST(Determinism, AuditModeDoesNotPerturbArtifacts)
{
    // The audited run exercises the event-queue pop monotonicity
    // check on every event and the aggregate-vs-subtree stat check at
    // dump time (2 devices), and must not change any exported byte.
    Artifacts plain = runOnce(2, ShardPolicy::RowRange);
    Artifacts audited = [] {
        ScopedAudit audit;
        return runOnce(2, ShardPolicy::RowRange);
    }();
    expectIdentical(plain, audited);
}

TEST(Determinism, AuditedMixedRwServeIsByteIdentical)
{
    // Mixed read-write serving under RECSSD_AUDIT drives every surface
    // the deferred-state protocol (src/common/analysis.h) annotates:
    // the write path bumps per-LPN remap epochs, the NDP engine
    // re-validates gather snapshots via writeEpochOf, the write
    // observer fires after each map mutation, and the sampler reads
    // the StatRegistry throughout. The audit only adds checks, so two
    // audited runs must still export byte-identical artifacts — and
    // must match an unaudited run byte for byte.
    auto mixedRun = [] {
        SystemConfig cfg = test::smallSystem();
        cfg.shard.numShards = 2;
        cfg.shard.policy = ShardPolicy::RowRange;
        System sys(cfg);
        sys.enableTracing();
        MetricSampler &sampler = sys.startMetricSampler(50 * usec);

        RunnerOptions opt;
        opt.backend = EmbeddingBackendKind::Ndp;
        opt.forceAllTablesOnSsd = true;
        ModelRunner runner(sys, tinyModel(), opt);
        ServeConfig serve = smallServe();
        serve.updates.rate = 50'000.0;
        serve.updates.skew = 0.8;
        ServeStats stats = runServe(runner, serve);
        EXPECT_EQ(stats.completedQueries, serve.queries);
        EXPECT_GT(stats.update.applied, 0u)
            << "update stream must actually exercise the write path";

        Artifacts out;
        std::ostringstream stats_os, metrics_os, trace_os;
        sys.dumpStatsJson(stats_os);
        sampler.sampleNow();
        sampler.writeJsonl(metrics_os);
        sys.tracer().writeChromeTrace(trace_os);
        out.statsJson = stats_os.str();
        out.metricsJsonl = metrics_os.str();
        out.trace = trace_os.str();
        return out;
    };

    Artifacts plain = mixedRun();
    ScopedAudit audit;
    Artifacts first = mixedRun();
    Artifacts second = mixedRun();
    expectIdentical(first, second);
    expectIdentical(plain, first);
}

TEST(Determinism, AuditValidatesFtlMappingAcrossGc)
{
    // Serve-mode reads rarely trigger GC, so drive the FTL write path
    // directly on a tiny drive until garbage collection runs with the
    // L2P bijection audit live after every row erase.
    ScopedAudit audit;
    FlashParams fp = test::tinyFlash();
    DataStore store(fp.pageSize);
    EventQueue eq;
    FlashArray flash(eq, fp, store);
    Ftl ftl(eq, FtlParams{}, flash);

    constexpr Lpn kLogical = 64;
    std::vector<std::byte> data(fp.pageSize, std::byte{0x5a});
    for (int round = 0; round < 4; ++round) {
        for (Lpn l = 0; l < kLogical; ++l) {
            bool done = false;
            ftl.hostWrite(l, data, [&]() { done = true; });
            eq.run();
            ASSERT_TRUE(done);
        }
    }
    EXPECT_GT(ftl.gcRuns(), 0u) << "workload must trigger GC";
}

}  // namespace
}  // namespace recssd
