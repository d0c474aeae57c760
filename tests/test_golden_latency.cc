/**
 * @file
 * Golden simulated-latency totals.
 *
 * The simulator's value is its timing model; a refactor that silently
 * shifts modeled latency is as much a regression as a wrong pooled
 * vector. For one pinned seed and a tiny model, the summed tick
 * latency of a fixed batch sequence on each backend is a constant of
 * the codebase. If a change moves one of these totals *intentionally*
 * (a timing-model improvement), update the constant in the same
 * commit and say why; the failure message prints old and new values
 * to make that diff explicit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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

/** Summed tick latency of 4 batches of 8 on a fresh system. */
Tick
totalLatency(EmbeddingBackendKind backend, bool cache_or_partition,
             unsigned num_ssds = 1,
             ShardPolicy policy = ShardPolicy::TableHash)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = num_ssds;
    cfg.shard.policy = policy;
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = backend;
    opt.forceAllTablesOnSsd = backend != EmbeddingBackendKind::Dram;
    opt.hostLruCache = cache_or_partition &&
                       backend == EmbeddingBackendKind::BaselineSsd;
    opt.staticPartition = cache_or_partition &&
                          backend == EmbeddingBackendKind::Ndp;
    opt.trace.kind = TraceKind::LocalityK;
    opt.trace.k = 1.0;
    opt.seed = 20260806;
    ModelRunner runner(sys, tinyModel(), opt);

    Tick total = 0;
    for (int b = 0; b < 4; ++b) {
        runner.launchQuery(QueryShape{8},
                           [&](Tick latency) { total += latency; });
        sys.run();
    }
    return total;
}

// The pinned constants. Regenerate by running this binary and copying
// the "new" values from the failure output.
constexpr Tick kGoldenDram = 35'532;
constexpr Tick kGoldenBaselineSsd = 14'993'272;
constexpr Tick kGoldenBaselineSsdCached = 13'183'424;
constexpr Tick kGoldenNdp = 6'022'114;
constexpr Tick kGoldenNdpPartitioned = 15'532;

TEST(GoldenLatency, Dram)
{
    Tick now = totalLatency(EmbeddingBackendKind::Dram, false);
    EXPECT_EQ(now, kGoldenDram)
        << "DRAM golden latency changed: old " << kGoldenDram << " new "
        << now << " ticks. Update the constant only for an intentional "
        << "timing-model change.";
}

TEST(GoldenLatency, BaselineSsd)
{
    Tick now = totalLatency(EmbeddingBackendKind::BaselineSsd, false);
    EXPECT_EQ(now, kGoldenBaselineSsd)
        << "baseline-SSD golden latency changed: old "
        << kGoldenBaselineSsd << " new " << now << " ticks.";
}

TEST(GoldenLatency, BaselineSsdWithHostCache)
{
    Tick now = totalLatency(EmbeddingBackendKind::BaselineSsd, true);
    EXPECT_EQ(now, kGoldenBaselineSsdCached)
        << "cached-baseline golden latency changed: old "
        << kGoldenBaselineSsdCached << " new " << now << " ticks.";
}

TEST(GoldenLatency, Ndp)
{
    Tick now = totalLatency(EmbeddingBackendKind::Ndp, false);
    EXPECT_EQ(now, kGoldenNdp)
        << "NDP golden latency changed: old " << kGoldenNdp << " new "
        << now << " ticks.";
}

TEST(GoldenLatency, NdpWithPartition)
{
    Tick now = totalLatency(EmbeddingBackendKind::Ndp, true);
    EXPECT_EQ(now, kGoldenNdpPartitioned)
        << "partitioned-NDP golden latency changed: old "
        << kGoldenNdpPartitioned << " new " << now << " ticks.";
}

TEST(GoldenLatency, ShardedSingleDeviceIsTheSeedPath)
{
    // A one-device sharded system is not "almost" the seed system: it
    // takes the identical code path (pass-through backend, unprefixed
    // trace tracks, same LPN layout) and must reproduce every golden
    // above, under both policies.
    for (auto policy : {ShardPolicy::TableHash, ShardPolicy::RowRange}) {
        EXPECT_EQ(totalLatency(EmbeddingBackendKind::Dram, false, 1,
                               policy),
                  kGoldenDram);
        EXPECT_EQ(totalLatency(EmbeddingBackendKind::BaselineSsd, false,
                               1, policy),
                  kGoldenBaselineSsd);
        EXPECT_EQ(totalLatency(EmbeddingBackendKind::BaselineSsd, true,
                               1, policy),
                  kGoldenBaselineSsdCached);
        EXPECT_EQ(totalLatency(EmbeddingBackendKind::Ndp, false, 1,
                               policy),
                  kGoldenNdp);
        EXPECT_EQ(totalLatency(EmbeddingBackendKind::Ndp, true, 1,
                               policy),
                  kGoldenNdpPartitioned);
    }
}

TEST(GoldenLatency, ShardedSingleDeviceStatsJsonBytes)
{
    // The exported stats JSON of an explicit numShards=1 system must
    // be byte-for-byte the default system's (no ssd0.* subtree, no
    // reordered keys) after identical work.
    std::string dumps[2];
    for (int pass = 0; pass < 2; ++pass) {
        SystemConfig cfg = test::smallSystem();
        if (pass == 1) {
            cfg.shard.numShards = 1;
            cfg.shard.policy = ShardPolicy::RowRange;
        }
        System sys(cfg);
        RunnerOptions opt;
        opt.backend = EmbeddingBackendKind::Ndp;
        opt.forceAllTablesOnSsd = true;
        opt.seed = 20260806;
        ModelRunner runner(sys, tinyModel(), opt);
        for (int b = 0; b < 2; ++b)
            runner.runBatch(8);
        std::ostringstream os;
        sys.dumpStatsJson(os);
        dumps[pass] = os.str();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

/** Serve-mode measurements on an N-device sharded system. */
ServeStats
serveStats(unsigned num_ssds, ShardPolicy policy)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = num_ssds;
    cfg.shard.policy = policy;
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    // Uniform accesses, so row-range ops genuinely span every shard
    // (a k=1.0 locality trace never leaves shard 0's row range and
    // would make every layout time out identically).
    opt.trace.kind = TraceKind::Uniform;
    opt.seed = 20260806;
    ModelRunner runner(sys, tinyModel(), opt);

    ServeConfig scfg;
    // Light load: no standing backlog, so the measured latency is the
    // per-query service path (where the shard layout matters), not
    // arrival-driven queueing (where every layout looks the same).
    scfg.arrivals.qps = 300.0;
    scfg.shape.minBatch = 4;
    scfg.shape.maxBatch = 4;
    scfg.queries = 24;
    scfg.warmupQueries = 4;
    scfg.seed = 20260806;
    return runServe(runner, scfg);
}

/** Mean end-to-end serve latency in whole nanoseconds. */
Tick
meanNs(const ServeStats &s)
{
    return Tick(std::llround(s.meanLatencyUs * 1'000.0));
}

// Serve-mode goldens: the measured latency of a pinned open-loop run
// (in ns, so the comparison is exact). Regenerate like the latency
// constants above.
constexpr Tick kGoldenServeMeanNs = 1'967'000;
constexpr Tick kGoldenServeSharded2HashMeanNs = 1'967'000;
constexpr Tick kGoldenServeSharded2RangeMeanNs = 1'298'099;

TEST(GoldenLatency, ServeShardedSingleDeviceMatchesSeed)
{
    // N=1 sharded serve must reproduce the seed golden under both
    // policies, down to the per-queue NVMe command spread.
    for (auto policy : {ShardPolicy::TableHash, ShardPolicy::RowRange}) {
        ServeStats s = serveStats(1, policy);
        EXPECT_EQ(meanNs(s), kGoldenServeMeanNs)
            << "single-device serve golden changed under policy "
            << shardPolicyName(policy) << ": old " << kGoldenServeMeanNs
            << " new " << meanNs(s) << " ns.";
        ASSERT_EQ(s.perDevice.size(), 1u);
        EXPECT_EQ(s.perDevice[0].commandsPerQueue, s.commandsPerQueue);
        EXPECT_EQ(s.scatteredOps, 0u);
    }
}

TEST(GoldenLatency, ServeShardedTwoDevices)
{
    ServeStats hash = serveStats(2, ShardPolicy::TableHash);
    EXPECT_EQ(meanNs(hash), kGoldenServeSharded2HashMeanNs)
        << "2-device hash serve golden changed: old "
        << kGoldenServeSharded2HashMeanNs << " new " << meanNs(hash)
        << " ns.";
    EXPECT_EQ(hash.scatteredOps, 0u)
        << "table-hash placement must never fan one op out";
    // splitmix64 happens to place both of tinyModel's tables on
    // device 1, so the 2-device hash timing equals the seed timing
    // with all traffic on the second stack — which doubles as a check
    // that device 1's stack is modeled identically to device 0's.
    ASSERT_EQ(hash.perDevice.size(), 2u);
    EXPECT_EQ(hash.perDevice[0].subOps, 0u);
    EXPECT_GT(hash.perDevice[1].subOps, 0u);

    ServeStats range = serveStats(2, ShardPolicy::RowRange);
    EXPECT_EQ(meanNs(range), kGoldenServeSharded2RangeMeanNs)
        << "2-device range serve golden changed: old "
        << kGoldenServeSharded2RangeMeanNs << " new " << meanNs(range)
        << " ns.";
    EXPECT_GT(range.scatteredOps, 0u)
        << "row-range placement must scatter ops across both devices";
    ASSERT_EQ(range.perDevice.size(), 2u);
    EXPECT_GT(range.perDevice[1].subOps, 0u);
}

// Mixed read-write golden: the same pinned serve run with an online
// update stream competing for firmware CPU and queues. Pins the read
// latency AND the exact write-path counters, so a change that shifts
// flush batching, replica fan-out or GC cadence fails loudly even if
// the read tail happens to absorb it.
constexpr Tick kGoldenMixedServeMeanNs = 5'667'342;
constexpr std::uint64_t kGoldenMixedApplied = 1'839;
constexpr std::uint64_t kGoldenMixedHostPageWrites = 1'839;
constexpr std::uint64_t kGoldenMixedFlashPageWrites = 1'839;
constexpr std::uint64_t kGoldenMixedGcRuns = 0;

TEST(GoldenLatency, ServeMixedReadWrite)
{
    SystemConfig cfg = test::smallSystem();
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    opt.trace.kind = TraceKind::Uniform;
    opt.seed = 20260806;
    ModelRunner runner(sys, tinyModel(), opt);

    ServeConfig scfg;
    scfg.arrivals.qps = 300.0;
    scfg.shape.minBatch = 4;
    scfg.shape.maxBatch = 4;
    scfg.queries = 24;
    scfg.warmupQueries = 4;
    scfg.seed = 20260806;
    scfg.updates.rate = 20'000.0;
    scfg.updates.skew = 0.8;
    ServeStats s = runServe(runner, scfg);

    EXPECT_EQ(meanNs(s), kGoldenMixedServeMeanNs)
        << "mixed-RW serve golden changed: old " << kGoldenMixedServeMeanNs
        << " new " << meanNs(s) << " ns.";
    EXPECT_EQ(s.update.applied, kGoldenMixedApplied)
        << "applied-update count changed: old " << kGoldenMixedApplied
        << " new " << s.update.applied;
    EXPECT_EQ(s.update.hostPageWrites, kGoldenMixedHostPageWrites)
        << "host page writes changed: old " << kGoldenMixedHostPageWrites
        << " new " << s.update.hostPageWrites;
    EXPECT_EQ(s.update.flashPageWrites, kGoldenMixedFlashPageWrites)
        << "flash programs changed: old " << kGoldenMixedFlashPageWrites
        << " new " << s.update.flashPageWrites;
    EXPECT_EQ(s.update.gcRuns, kGoldenMixedGcRuns)
        << "GC run count changed: old " << kGoldenMixedGcRuns << " new "
        << s.update.gcRuns;
    // The stream must actually have run: reads raced real writes.
    EXPECT_GT(s.update.applied, 0u);
    EXPECT_GT(s.update.hostPageWrites, 0u);
}

TEST(GoldenLatency, RelationshipsHold)
{
    // Independent of the exact constants: SSD must cost more than
    // DRAM, and the paper's optimizations must not slow their
    // baselines down on a locality-friendly trace.
    Tick dram = totalLatency(EmbeddingBackendKind::Dram, false);
    Tick base = totalLatency(EmbeddingBackendKind::BaselineSsd, false);
    Tick cached = totalLatency(EmbeddingBackendKind::BaselineSsd, true);
    Tick ndp = totalLatency(EmbeddingBackendKind::Ndp, false);
    EXPECT_LT(dram, base);
    EXPECT_LE(cached, base);
    EXPECT_LT(ndp, base) << "NDP offload must beat page-granular reads";
}

}  // namespace
}  // namespace recssd
