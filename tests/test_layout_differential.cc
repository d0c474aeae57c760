/**
 * @file
 * Differential + golden lockdown of the layout subsystem.
 *
 * `--layout-policy log` (the default) must be a perfect no-op: a
 * system configured with an explicit log policy — even with non-default
 * hot-tier sizing knobs — must be tick-for-tick and stats-JSON
 * byte-identical to the untouched default system. The freq policy gets
 * its own golden snapshot (total ticks + layout counters) on the K=1
 * locality trace, pinned the same way as tests/test_golden_latency.cc.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/reco/model_runner.h"
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

struct RunArtifacts
{
    Tick totalLatency = 0;
    Tick finalNow = 0;
    std::string statsJson;
};

/** 4 NDP batches of 8 on a fresh system; everything a diff can bite. */
RunArtifacts
runNdp(const SystemConfig &cfg)
{
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    opt.trace.kind = TraceKind::LocalityK;
    opt.trace.k = 1.0;
    opt.seed = 20260806;
    ModelRunner runner(sys, tinyModel(), opt);

    RunArtifacts out;
    for (int b = 0; b < 4; ++b) {
        runner.launchQuery(QueryShape{8}, [&](Tick latency) {
            out.totalLatency += latency;
        });
        sys.run();
    }
    out.finalNow = sys.eq().now();
    std::ostringstream os;
    sys.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

TEST(LayoutDifferential, ExplicitLogPolicyIsByteIdenticalToDefault)
{
    // The seed path: default config, layout subsystem never built.
    RunArtifacts seed = runNdp(test::smallSystem());

    // Explicit log policy with every non-policy knob set to unusual
    // values: none of them may matter while the policy is Log.
    SystemConfig cfg = test::smallSystem();
    cfg.ssd.ftl.layout.policy = LayoutPolicy::Log;
    cfg.ssd.ftl.layout.hotTierPages = 7;
    cfg.ssd.ftl.layout.promoteThreshold = 2;
    cfg.ssd.ftl.layout.demoteThreshold = 1;
    cfg.ssd.ftl.layout.decayInterval = 16;
    RunArtifacts log = runNdp(cfg);

    EXPECT_EQ(seed.totalLatency, log.totalLatency)
        << "log policy must be tick-for-tick the seed";
    EXPECT_EQ(seed.finalNow, log.finalNow);
    EXPECT_EQ(seed.statsJson, log.statsJson)
        << "log policy must export byte-identical stats JSON";
}

TEST(LayoutDifferential, LogPolicyExportsNoLayoutStats)
{
    RunArtifacts seed = runNdp(test::smallSystem());
    EXPECT_EQ(seed.statsJson.find("layout"), std::string::npos)
        << "no layout.* keys may exist under the log policy";
    EXPECT_EQ(seed.statsJson.find("hot_tier"), std::string::npos);
}

TEST(LayoutDifferential, FreqPolicyExportsLayoutStats)
{
    SystemConfig cfg = test::smallSystem();
    cfg.ssd.ftl.layout.policy = LayoutPolicy::Freq;
    RunArtifacts freq = runNdp(cfg);
    for (const char *key :
         {"layout.promotions", "layout.migrated_pages",
          "layout.read_pins", "layout.hot_pages_allocated",
          "layout.hot_tier.hits", "sls.hot_tier_hits"}) {
        EXPECT_NE(freq.statsJson.find(key), std::string::npos) << key;
    }
}

// The pinned freq-policy golden on the K=1 trace. Regenerate by
// running this binary and copying the "new" values from the failure
// output; update only for an intentional timing/policy change, and
// say why in the commit.
constexpr Tick kGoldenFreqNdpK1 = 44'536'168;
constexpr std::uint64_t kGoldenFreqPromotions = 55;
constexpr std::uint64_t kGoldenFreqMigratedPages = 5;
constexpr std::uint64_t kGoldenFreqHotTierHits = 69;

TEST(LayoutDifferential, GoldenFreqSnapshotOnK1Trace)
{
    SystemConfig cfg = test::smallSystem();
    cfg.ssd.ftl.layout.policy = LayoutPolicy::Freq;
    // The default decay interval is sized for serving workloads; the
    // tiny 24-batch run would never sweep, so no page could mature.
    // Shrink it so the golden locks the full promote -> mature ->
    // migrate -> hot-tier-hit pipeline, not just read pinning.
    cfg.ssd.ftl.layout.decayInterval = 512;

    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    opt.trace.kind = TraceKind::LocalityK;
    opt.trace.k = 1.0;
    opt.seed = 20260806;
    ModelRunner runner(sys, tinyModel(), opt);

    // Long enough for the tracker to promote the K=1 hot set, migrate
    // it, and serve later batches from the pinned DRAM copies.
    Tick total = 0;
    for (int b = 0; b < 24; ++b) {
        runner.launchQuery(QueryShape{8},
                           [&](Tick latency) { total += latency; });
        sys.run();
    }

    const LayoutManager *lay = sys.ssd(0).ftl().layout();
    ASSERT_NE(lay, nullptr);
    EXPECT_EQ(total, kGoldenFreqNdpK1)
        << "freq golden latency changed: old " << kGoldenFreqNdpK1
        << " new " << total << " ticks.";
    EXPECT_EQ(lay->promotions(), kGoldenFreqPromotions)
        << "freq golden promotions changed: old " << kGoldenFreqPromotions
        << " new " << lay->promotions();
    EXPECT_EQ(lay->migratedPages(), kGoldenFreqMigratedPages)
        << "freq golden migrated pages changed: old "
        << kGoldenFreqMigratedPages << " new " << lay->migratedPages();
    EXPECT_EQ(lay->tier().hits(), kGoldenFreqHotTierHits)
        << "freq golden hot-tier hits changed: old "
        << kGoldenFreqHotTierHits << " new " << lay->tier().hits();
    // All traffic here is NDP, so the engine's own hit counter must
    // account for every tier hit (host reads would add more).
    EXPECT_EQ(sys.ssd(0).slsEngine().hotTierHits(), lay->tier().hits());
}

TEST(LayoutDifferential, FreqPolicyIsDeterministic)
{
    // Two identical freq runs must agree in every artifact — the
    // layout subsystem introduces no iteration-order or wall-clock
    // dependence.
    SystemConfig cfg = test::smallSystem();
    cfg.ssd.ftl.layout.policy = LayoutPolicy::Freq;
    RunArtifacts a = runNdp(cfg);
    RunArtifacts b = runNdp(cfg);
    EXPECT_EQ(a.totalLatency, b.totalLatency);
    EXPECT_EQ(a.finalNow, b.finalNow);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

}  // namespace
}  // namespace recssd
