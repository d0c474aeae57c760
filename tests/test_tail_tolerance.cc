/**
 * @file
 * Fault model + tail tolerance: the scatter-gather path under injected
 * device faults.
 *
 * The load-bearing guarantees:
 *  - a dropped device's reads fail over to replicas and every SLS sum
 *    stays bit-exact against the synthetic functional reference;
 *  - deadlines deliver degraded answers instead of hanging, with the
 *    degraded flag raised and late completions accounted per device;
 *  - hedge accounting conserves sub-ops (completions = served +
 *    duplicates; wins <= fires);
 *  - replica rotation balances reads instead of parity-locking;
 *  - with resilience off and replication 1, scatter-gather timing is
 *    tick-for-tick that of the plain fan-out it grew from;
 *  - a dead device with no resilience configured degrades its
 *    sub-ops instead of losing queries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/resil/health.h"
#include "src/resil/hedge.h"
#include "src/reco/serving.h"
#include "src/shard/sharded_backend.h"
#include "src/trace/trace_gen.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

constexpr unsigned kBatch = 4;
constexpr unsigned kLookups = 12;

/** Per-device NDP backends wrapped in the scatter-gather fan-out. */
struct ResilSet
{
    std::vector<std::unique_ptr<NdpSlsBackend>> owned;
    std::unique_ptr<ShardedSlsBackend> resil;

    ResilSet(System &sys, const ResilConfig &config)
    {
        std::vector<SlsBackend *> inner;
        for (unsigned d = 0; d < sys.numSsds(); ++d) {
            owned.push_back(std::make_unique<NdpSlsBackend>(
                sys.eq(), sys.cpu(), sys.driver(d), sys.queues(d),
                NdpSlsBackend::Options{}));
            inner.push_back(owned.back().get());
        }
        resil = std::make_unique<ShardedSlsBackend>(
            sys.eq(), sys.cpu(), sys.router(), inner, config);
        resil->setDeviceProbe([&sys](unsigned d) {
            return !sys.ssd(d).controller().dead();
        });
    }
};

SystemConfig
faultedConfig(unsigned num_ssds, unsigned replication,
              const std::string &plan)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = num_ssds;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.shard.replication = replication;
    if (!plan.empty())
        applyFaultPlan(cfg, FaultPlan::parse(plan));
    return cfg;
}

TEST(FaultPlanParse, InlineSpecRoundTrips)
{
    FaultPlan plan = FaultPlan::parse(
        "seed=77; stall@1:at=2ms,dur=500us,period=4ms,count=3,ch=1,die=0; "
        "inflate@0:at=1ms,dur=10ms,factor=3.5; dropout@3:at=50ms");
    EXPECT_EQ(plan.seed, 77u);
    ASSERT_EQ(plan.scenarios.size(), 3u);
    EXPECT_EQ(plan.maxDevice(), 3u);

    const FaultScenario &stall = plan.scenarios[0];
    EXPECT_EQ(stall.kind, FaultKind::DieStall);
    EXPECT_EQ(stall.device, 1u);
    EXPECT_EQ(stall.at, 2 * msec);
    EXPECT_EQ(stall.duration, 500 * usec);
    EXPECT_EQ(stall.period, 4 * msec);
    EXPECT_EQ(stall.count, 3u);
    EXPECT_EQ(stall.channel, 1);
    EXPECT_EQ(stall.die, 0);

    const FaultScenario &inflate = plan.scenarios[1];
    EXPECT_EQ(inflate.kind, FaultKind::ReadInflation);
    EXPECT_DOUBLE_EQ(inflate.factor, 3.5);

    const FaultScenario &drop = plan.scenarios[2];
    EXPECT_EQ(drop.kind, FaultKind::DeviceDropout);
    EXPECT_EQ(drop.at, 50 * msec);

    EXPECT_EQ(plan.forDevice(1).size(), 1u);
    EXPECT_TRUE(plan.forDevice(2).empty());
}

TEST(FaultPlanParse, CommentsAndDefaults)
{
    FaultPlan plan = FaultPlan::parse("# a comment\n fwpause@0:at=1ms \n");
    ASSERT_EQ(plan.scenarios.size(), 1u);
    EXPECT_EQ(plan.scenarios[0].kind, FaultKind::FirmwarePause);
    EXPECT_GT(plan.scenarios[0].duration, 0);  // kind default applied
    EXPECT_EQ(plan.scenarios[0].count, 1u);
}

TEST(FaultPlanParse, FileLoadsLikeTheInlineSpec)
{
    const std::string spec = "seed=9\n# a comment\nstall@1:at=2ms,count=2,"
                             "period=4ms; fwpause@0:at=1ms\ndropout@3\n";
    std::string path = testing::TempDir() + "/fault_plan_test.txt";
    std::ofstream(path) << spec;
    FaultPlan file = FaultPlan::load(path);
    FaultPlan inline_plan = FaultPlan::parse(spec);
    EXPECT_EQ(file.seed, 9u);
    ASSERT_EQ(file.scenarios.size(), 3u);
    ASSERT_EQ(inline_plan.scenarios.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(file.scenarios[i].kind, inline_plan.scenarios[i].kind);
        EXPECT_EQ(file.scenarios[i].device, inline_plan.scenarios[i].device);
        EXPECT_EQ(file.scenarios[i].at, inline_plan.scenarios[i].at);
        EXPECT_EQ(file.scenarios[i].count, inline_plan.scenarios[i].count);
    }
}

TEST(FaultPlanParseDeathTest, RejectsBadTimes)
{
    auto at = [](const char *time) {
        FaultPlan::parse(std::string("dropout@3:at=") + time);
    };
    EXPECT_DEATH(at("inf"), "fault plan: time 'inf' needs a ns/us/ms/s");
    EXPECT_DEATH(at("nan"), "fault plan: time 'nan' needs a ns/us/ms/s");
    EXPECT_DEATH(at("infs"), "fault plan: time 'infs' is not finite");
    EXPECT_DEATH(at("nanms"), "fault plan: time 'nanms' is not finite");
    EXPECT_DEATH(at("1e300s"), "fault plan: time '1e300s' overflows");
    EXPECT_DEATH(at("-1ms"), "fault plan: negative time");
    EXPECT_DEATH(at("5"), "fault plan: time '5' needs a ns/us/ms/s");
    EXPECT_DEATH(at("ms"), "fault plan: bad time 'ms'");
}

TEST(FaultPlanParseDeathTest, RejectsBadNumbers)
{
    // atoi/strtoul read these as 0 or 3, atof passed inf, count=-1
    // wrapped to 4294967295 occurrences and ch=-3 meant "random".
    EXPECT_DEATH(FaultPlan::parse("stall@abc"),
                 "fault plan: bad integer 'abc' in 'stall@abc'");
    EXPECT_DEATH(FaultPlan::parse("stall@0:ch=abc"),
                 "fault plan: bad integer 'abc'");
    EXPECT_DEATH(FaultPlan::parse("stall@0:die=1.5"),
                 "fault plan: bad integer '1.5'");
    EXPECT_DEATH(FaultPlan::parse("stall@0:count=3x,period=1ms"),
                 "fault plan: bad integer '3x'");
    EXPECT_DEATH(FaultPlan::parse("seed=abc;stall@0"),
                 "fault plan: bad integer 'abc' in 'seed=abc'");
    EXPECT_DEATH(FaultPlan::parse("inflate@0:factor=inf"),
                 "fault plan: non-finite number 'inf'");
    EXPECT_DEATH(FaultPlan::parse("inflate@0:factor=2x"),
                 "fault plan: bad number '2x'");
    EXPECT_DEATH(FaultPlan::parse("stall@0:count=-1,period=1ms"),
                 "fault plan: bad integer '-1'");
    EXPECT_DEATH(FaultPlan::parse("stall@0:ch=-3"),
                 "fault plan: bad integer '-3'");
    EXPECT_DEATH(FaultPlan::parse("stall@4294967296"),
                 "fault plan: integer '4294967296' out of range");
}

TEST(FaultPlanParse, AcceptsRandomIndexAndLargestSeed)
{
    FaultPlan plan =
        FaultPlan::parse("seed=18446744073709551615;stall@2:ch=-1,die=-1");
    EXPECT_EQ(plan.seed, 18446744073709551615u);
    ASSERT_EQ(plan.scenarios.size(), 1u);
    EXPECT_EQ(plan.scenarios[0].device, 2u);
    EXPECT_EQ(plan.scenarios[0].channel, -1);
    EXPECT_EQ(plan.scenarios[0].die, -1);
}

TEST(FaultPlanParseDeathTest, RejectsJitterBeyondPeriod)
{
    // Jitter draws from [0, jitter): above the period, an occurrence
    // could start before its predecessor.
    EXPECT_DEATH(FaultPlan::parse("stall@0:count=3,period=1ms,jitter=2ms"),
                 "fault plan: jitter exceeds period");
    EXPECT_DEATH(
        FaultPlan::parse("stall@0:count=4294967295,period=5000000s"),
        "fault plan: occurrences overflow the clock");
    FaultPlan ok = FaultPlan::parse(
        "stall@0:count=3,period=1ms,jitter=1ms;stall@0:jitter=5ms");
    EXPECT_EQ(ok.scenarios[0].jitter, 1 * msec);
    EXPECT_EQ(ok.scenarios[1].jitter, 5 * msec);
}

/** Sets RECSSD_AUDIT for its lifetime (queues read it at construction). */
class ScopedAudit
{
  public:
    ScopedAudit() { ::setenv("RECSSD_AUDIT", "1", 1); }
    ~ScopedAudit() { ::unsetenv("RECSSD_AUDIT"); }
    ScopedAudit(const ScopedAudit &) = delete;
    ScopedAudit &operator=(const ScopedAudit &) = delete;
};

/** One popped event: a fault firing (its scenario and target die) or,
 *  with scenario -1, an ordinary event tied with the faults' ticks. */
struct Firing
{
    Tick when;
    std::uint64_t seq;
    int scenario;
    unsigned ch;
    unsigned die;
    bool operator==(const Firing &) const = default;
};

/**
 * Reference: the injector's arming before occurrences became lazy
 * series. Every occurrence is drawn from one Rng, in scenario-then-
 * occurrence order, and scheduled up front; each firing acts as the
 * injector's does (stall or firmware pause on device 0).
 */
void
armEagerly(System &sys, const DeviceFaultConfig &cfg,
           std::vector<Firing> &out)
{
    Rng rng(cfg.seed);
    const auto &fp = sys.ssd(0).flash().params();
    for (int k = 0; k < static_cast<int>(cfg.scenarios.size()); ++k) {
        const FaultScenario s = cfg.scenarios[k];
        for (unsigned i = 0; i < s.count; ++i) {
            Tick start = s.at + static_cast<Tick>(i) * s.period;
            if (s.jitter > 0)
                start += rng.uniformInt(s.jitter);
            unsigned ch = 0, die = 0;
            if (s.kind == FaultKind::DieStall) {
                ch = s.channel >= 0 ? static_cast<unsigned>(s.channel)
                                    : static_cast<unsigned>(
                                          rng.uniformInt(fp.numChannels));
                die = s.die >= 0 ? static_cast<unsigned>(s.die)
                                 : static_cast<unsigned>(
                                       rng.uniformInt(fp.diesPerChannel));
            }
            sys.eq().schedule(start, [&sys, &out, s, k, ch, die]() {
                out.push_back({sys.eq().now(), sys.eq().auditLastSeq(), k,
                               ch, die});
                if (s.kind == FaultKind::DieStall)
                    sys.ssd(0).flash().stallDie(ch, die, s.duration);
                else
                    sys.ssd(0).ftl().injectFirmwarePause(s.duration);
            });
        }
    }
}

/** Ordinary events on the fault period grid, scheduled after arming. */
void
scheduleGrid(System &sys, std::vector<Firing> &out)
{
    for (unsigned k = 1; k <= 40; ++k) {
        sys.eq().schedule(k * msec, [&sys, &out]() {
            out.push_back({sys.eq().now(), sys.eq().auditLastSeq(), -1, 0, 0});
        });
    }
}

/**
 * The lazy fault series pop exactly as eager arming did: same (when,
 * seq) keys, same scenario order on tied ticks, same die draws. Three
 * scenarios on one device: two drawing stalls (random ch and die, a
 * few ns of jitter so occurrences tie with the period grid) around a
 * firmware pause that draws nothing, plus ordinary events on the
 * grid. The stalls' durations tell them apart on the lazy side, where
 * a firing shows as a die's busy horizon moving.
 */
TEST(FaultInjectorSeries, PopTraceMatchesEagerArming)
{
    ScopedAudit audit;
    const std::string plan =
        "seed=5;"
        "stall@0:at=1ms,dur=300us,period=1ms,jitter=3ns,count=40,"
        "ch=-1,die=-1;"
        "fwpause@0:at=1ms,dur=50us,period=2ms,count=20;"
        "stall@0:at=2ms,dur=700us,period=1ms,jitter=2ns,count=30,die=-1";
    SystemConfig cfg = test::smallSystem();
    applyFaultPlan(cfg, FaultPlan::parse(plan));
    const DeviceFaultConfig faults = cfg.perSsd.at(0).faults;
    ASSERT_EQ(faults.scenarios.size(), 3u);

    std::vector<Firing> want;
    {
        SystemConfig plain = test::smallSystem();
        System sys(plain);
        armEagerly(sys, faults, want);
        scheduleGrid(sys, want);
        sys.run();
    }

    std::vector<Firing> got;
    System sys(cfg);
    scheduleGrid(sys, got);
    FaultInjector &inj = *sys.ssd(0).faultInjector();
    FlashArray &flash = sys.ssd(0).flash();
    const auto &fp = flash.params();
    // Nothing else touches the channels, so a die's page backlog is its
    // busy horizon.
    auto die_free = [&](unsigned c, unsigned d) {
        return flash.backlogFor(FlashAddress::encode(c, d, 0, 0, fp));
    };
    std::vector<Tick> free_at(fp.numChannels * fp.diesPerChannel);
    while (true) {
        for (unsigned c = 0; c < fp.numChannels; ++c)
            for (unsigned d = 0; d < fp.diesPerChannel; ++d)
                free_at[c * fp.diesPerChannel + d] = die_free(c, d);
        const std::uint64_t stalls = inj.dieStalls();
        const std::uint64_t pauses = inj.firmwarePauses();
        if (!sys.eq().runOne())
            break;
        const Tick now = sys.eq().now();
        if (inj.firmwarePauses() > pauses) {
            got.push_back({now, sys.eq().auditLastSeq(), 1, 0, 0});
            continue;
        }
        if (inj.dieStalls() == stalls)
            continue;
        for (unsigned c = 0; c < fp.numChannels; ++c) {
            for (unsigned d = 0; d < fp.diesPerChannel; ++d) {
                Tick before = free_at[c * fp.diesPerChannel + d];
                Tick after = die_free(c, d);
                if (after == before)
                    continue;
                Tick dur = after - std::max(now, before);
                got.push_back({now, sys.eq().auditLastSeq(),
                               dur == 300 * usec ? 0 : 2, c, d});
            }
        }
    }

    ASSERT_EQ(got.size(), 40u + 20u + 30u + 40u);
    EXPECT_EQ(got, want);
    // The trace must exercise what the series could get wrong: fault
    // occurrences tied on a tick with each other and with the grid,
    // and more than one die drawn.
    unsigned ties = 0;
    std::set<unsigned> dies;
    for (std::size_t i = 1; i < want.size(); ++i)
        ties += want[i].when == want[i - 1].when;
    for (const Firing &f : want)
        if (f.scenario == 0)
            dies.insert(f.ch * fp.diesPerChannel + f.die);
    EXPECT_GT(ties, 20u);
    EXPECT_GT(dies.size(), 1u);
}

TEST(HealthTrackerUnit, EjectsCoolsDownAndRestores)
{
    HealthTracker h(2, 3, 10 * msec);
    Tick now = 1 * msec;
    EXPECT_FALSE(h.ejected(0, now));
    h.recordTimeout(0, now);
    h.recordTimeout(0, now);
    EXPECT_FALSE(h.ejected(0, now));
    h.recordTimeout(0, now);
    EXPECT_TRUE(h.ejected(0, now));
    EXPECT_EQ(h.ejections(), 1u);
    // Half-open: the window expires and the device is retried.
    EXPECT_FALSE(h.ejected(0, now + 11 * msec));
    // A success during the window restores immediately.
    h.recordTimeout(1, now);
    h.recordTimeout(1, now);
    h.recordTimeout(1, now);
    EXPECT_TRUE(h.ejected(1, now));
    h.recordSuccess(1);
    EXPECT_FALSE(h.ejected(1, now));
    EXPECT_EQ(h.restorations(), 1u);
}

TEST(HedgePolicyUnit, FixedAndAutoDelays)
{
    HedgeConfig fixed;
    fixed.mode = HedgeMode::Fixed;
    fixed.fixedDelay = 3 * msec;
    HedgePolicy fp(fixed);
    EXPECT_TRUE(fp.active());
    EXPECT_EQ(fp.delay(), 3 * msec);

    HedgeConfig autoCfg;
    autoCfg.mode = HedgeMode::Auto;
    autoCfg.fixedDelay = 3 * msec;
    autoCfg.quantile = 0.95;
    autoCfg.multiplier = 2.0;
    autoCfg.minSamples = 4;
    autoCfg.minDelay = 1 * usec;
    HedgePolicy ap(autoCfg);
    // Below minSamples: fall back to the fixed delay.
    ap.observe(100 * usec);
    EXPECT_EQ(ap.delay(), 3 * msec);
    ap.observe(100 * usec);
    ap.observe(100 * usec);
    ap.observe(200 * usec);
    // p95 of {100,100,100,200}us is 200us; times the multiplier.
    EXPECT_EQ(ap.delay(), 400 * usec);

    HedgePolicy off{HedgeConfig{}};
    EXPECT_FALSE(off.active());
}

/**
 * The headline acceptance scenario: 4 row-range devices, 2-way
 * replication, device 3 drops at t=50ms while ops are continuously in
 * flight. Hedging rescues the sub-ops swallowed by the dying device;
 * the probe fails the dead device over for everything issued later.
 * Every op must complete and every SLS sum must equal the exact
 * functional reference.
 */
TEST(TailTolerance, DropoutFailsOverBitExact)
{
    System sys(faultedConfig(4, 2, "dropout@3:at=50ms"));
    auto table = sys.installTable(10'000, 16);

    ResilConfig rc;
    rc.hedge.mode = HedgeMode::Fixed;
    rc.hedge.fixedDelay = 2 * msec;
    ResilSet set(sys, rc);

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 20260806;
    TraceGenerator gen(spec);

    constexpr unsigned kOps = 25;
    struct OpResult
    {
        std::vector<std::vector<RowId>> indices;
        SlsResult result;
        bool degraded = false;
        bool completed = false;
    };
    std::vector<OpResult> ops(kOps);
    // One op every 4ms: ~12 before the dropout, the rest after, with
    // several in flight when the device dies.
    for (unsigned i = 0; i < kOps; ++i) {
        ops[i].indices = gen.nextBatch(kBatch, kLookups);
        sys.eq().schedule(Tick(i) * (4 * msec), [&, i]() {
            SlsOp op;
            op.table = &table;
            op.indices = ops[i].indices;
            set.resil->runEx(op, [&, i](SlsResult r, bool degraded) {
                ops[i].result = std::move(r);
                ops[i].degraded = degraded;
                ops[i].completed = true;
            });
        });
    }
    sys.run();

    for (unsigned i = 0; i < kOps; ++i) {
        ASSERT_TRUE(ops[i].completed) << "op " << i << " never completed";
        EXPECT_FALSE(ops[i].degraded) << "op " << i;
        EXPECT_EQ(ops[i].result,
                  synthetic::expectedSls(table, ops[i].indices))
            << "op " << i << " not bit-exact";
    }
    EXPECT_TRUE(sys.ssd(3).controller().dead());
    // Post-dropout reads landed on replicas, not the dead device.
    EXPECT_GT(set.resil->failovers(), 0u);
    // Conservation: every completion is either the serving one or
    // counted hedge waste (the dead device's swallowed sub-ops are
    // the issue/completion gap).
    EXPECT_EQ(set.resil->completionsTotal(),
              set.resil->servedSubs() + set.resil->duplicateCompletions());
    EXPECT_LE(set.resil->completionsTotal(), set.resil->issuesTotal());
    EXPECT_LE(set.resil->hedgeWins(), set.resil->hedgesFired());
}

/**
 * A deadline far below the device's service time: the op must deliver
 * at the deadline with the degraded flag and a zero-filled answer
 * (no host cache attached), and the real completions that straggle in
 * afterwards must be counted late and as duplicates.
 */
TEST(TailTolerance, DeadlineDeliversDegraded)
{
    System sys(faultedConfig(2, 1, ""));
    auto table = sys.installTable(10'000, 16);

    ResilConfig rc;
    rc.deadline = 1 * usec;
    ResilSet set(sys, rc);

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 31;
    TraceGenerator gen(spec);

    SlsOp op;
    op.table = &table;
    op.indices = gen.nextBatch(kBatch, kLookups);
    SlsResult result;
    bool degraded = false;
    bool completed = false;
    Tick done_at = 0;
    set.resil->runEx(op, [&](SlsResult r, bool d) {
        result = std::move(r);
        degraded = d;
        completed = true;
        done_at = sys.eq().now();
    });
    sys.run();

    ASSERT_TRUE(completed);
    EXPECT_TRUE(degraded);
    EXPECT_EQ(done_at, 1 * usec);  // delivered exactly at the deadline
    EXPECT_EQ(set.resil->deadlineMisses(), 1u);
    EXPECT_GT(set.resil->degradedFills(), 0u);
    // No host cache: the degraded answer is all zeros.
    for (float v : result)
        EXPECT_EQ(v, 0.0f);
    // The real sub-op completions arrived after delivery: all late,
    // all duplicates, none serving.
    EXPECT_EQ(set.resil->servedSubs(), 0u);
    EXPECT_EQ(set.resil->completionsTotal(),
              set.resil->duplicateCompletions());
    std::uint64_t late = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        late += set.resil->lateCompletionsOn(d);
    EXPECT_EQ(late, set.resil->completionsTotal());
    EXPECT_GT(late, 0u);
}

/**
 * Die stalls slow one device while hedging re-issues to replicas:
 * results stay bit-exact and the accounting invariants hold exactly
 * (no dead devices here, so issues == completions once drained).
 */
TEST(TailTolerance, HedgeAccountingConserved)
{
    System sys(faultedConfig(
        3, 2, "stall@0:at=1ms,dur=5ms,period=6ms,count=8,ch=0,die=0"));
    auto table = sys.installTable(9'000, 16);

    ResilConfig rc;
    rc.hedge.mode = HedgeMode::Fixed;
    rc.hedge.fixedDelay = 300 * usec;
    ResilSet set(sys, rc);

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 404;
    TraceGenerator gen(spec);

    constexpr unsigned kOps = 20;
    std::vector<std::vector<std::vector<RowId>>> indices(kOps);
    std::vector<SlsResult> results(kOps);
    unsigned completed = 0;
    for (unsigned i = 0; i < kOps; ++i) {
        indices[i] = gen.nextBatch(kBatch, kLookups);
        sys.eq().schedule(Tick(i) * (2 * msec), [&, i]() {
            SlsOp op;
            op.table = &table;
            op.indices = indices[i];
            set.resil->runEx(op, [&, i](SlsResult r, bool) {
                results[i] = std::move(r);
                ++completed;
            });
        });
    }
    sys.run();

    ASSERT_EQ(completed, kOps);
    for (unsigned i = 0; i < kOps; ++i)
        EXPECT_EQ(results[i], synthetic::expectedSls(table, indices[i]))
            << "op " << i;
    // No device ever dies, so every issue eventually completes.
    EXPECT_EQ(set.resil->issuesTotal(), set.resil->completionsTotal());
    EXPECT_EQ(set.resil->completionsTotal(),
              set.resil->servedSubs() + set.resil->duplicateCompletions());
    EXPECT_LE(set.resil->hedgeWins(), set.resil->hedgesFired());
    // Every hedge adds exactly one extra issue, and with no dead
    // device both the original and the hedge complete — so the extra
    // completions are all counted as hedge waste.
    EXPECT_EQ(set.resil->duplicateCompletions(), set.resil->hedgesFired());
    EXPECT_GT(set.resil->hedgesFired(), 0u);
}

/**
 * Replica rotation must spread reads: with 2-way replication over 4
 * devices and no faults, no device may starve (the parity-lock
 * regression: a per-sub counter against an even candidate count sent
 * entire slices to one fixed candidate forever).
 */
TEST(TailTolerance, ReplicaReadsBalanceAcrossDevices)
{
    System sys(faultedConfig(4, 2, ""));
    auto table = sys.installTable(12'000, 16);

    ResilSet set(sys, ResilConfig{});

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 555;
    TraceGenerator gen(spec);

    constexpr unsigned kOps = 40;
    unsigned completed = 0;
    for (unsigned i = 0; i < kOps; ++i) {
        SlsOp op;
        op.table = &table;
        op.indices = gen.nextBatch(kBatch, kLookups);
        set.resil->runEx(op, [&](SlsResult, bool) { ++completed; });
        sys.run();
    }
    ASSERT_EQ(completed, kOps);

    std::uint64_t lo = ~0ull, hi = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        std::uint64_t n = set.resil->subOpsOn(d);
        lo = std::min(lo, n);
        hi = std::max(hi, n);
    }
    EXPECT_GT(lo, 0u) << "a device starved";
    EXPECT_LE(hi, 2 * lo) << "replica reads badly imbalanced";
}

/**
 * With replication 1, hedging off and no deadline, scatter-gather must
 * time exactly like the plain fan-out it replaced: exact results at
 * the simulated completion ticks that fan-out produced, op for op
 * (captured from it on this 3-shard, 6-op run).
 */
TEST(TailTolerance, InactiveConfigMatchesShardedTickForTick)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 3;
    cfg.shard.policy = ShardPolicy::RowRange;
    System sys(cfg);
    auto table = sys.installTable(10'000, 16);
    ResilSet set(sys, ResilConfig{});

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 99;
    TraceGenerator gen(spec);

    const std::vector<Tick> plain_done_at = {665314,  1237363, 1813101,
                                             2292598, 2776499, 3441456};
    for (unsigned i = 0; i < plain_done_at.size(); ++i) {
        SlsOp op;
        op.table = &table;
        op.indices = gen.nextBatch(kBatch, kLookups);
        SlsResult result;
        Tick done_at = 0;
        set.resil->run(op, [&](SlsResult r) {
            result = std::move(r);
            done_at = sys.eq().now();
        });
        sys.run();
        EXPECT_EQ(result, synthetic::expectedSls(table, op.indices))
            << "op " << i;
        EXPECT_EQ(done_at, plain_done_at[i]) << "op " << i;
    }
    EXPECT_EQ(set.resil->scatteredOps(), 6u);
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        EXPECT_EQ(set.resil->subOpsOn(d), 6u) << "ssd" << d;
}

/**
 * A device dropout with no resilience configured: every sub-op routed
 * to the dead device degrades at issue (the liveness probe is always
 * installed), so the serve completes every query instead of losing
 * the ones the dead controller would swallow.
 */
TEST(TailTolerance, DropoutWithoutResilienceDegradesInsteadOfLosingQueries)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 4;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.host.ioQueues = 4;
    cfg.ssd.nvme.numQueues = 4;
    cfg.host.balancedQueueGrants = true;
    applyFaultPlan(cfg, FaultPlan::parse("dropout@3:at=0ms"));
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.seed = 42;
    ModelRunner runner(sys, modelByName("RM1"), opt);

    // recssd_sim --serve --num-ssds 4 --shard-policy range
    //   --fault-plan 'dropout@3:at=0ms' --queries 40 --qps 20
    ServeConfig scfg;
    scfg.arrivals.qps = 20.0;
    scfg.shape.minBatch = 16;
    scfg.shape.maxBatch = 16;
    scfg.batching.maxBatchSamples = 64;
    scfg.batching.maxWait = 500 * usec;
    scfg.batching.maxInFlight = 4;
    scfg.queries = 40;
    scfg.warmupQueries = 4;
    scfg.seed = 42;
    ServeStats s = runServe(runner, scfg);

    EXPECT_EQ(s.completedQueries, 40u);
    EXPECT_GT(s.degradedQueries, 0u);
    ASSERT_EQ(s.perDevice.size(), 4u);
    std::uint64_t ssd3_commands = 0;
    for (std::uint64_t c : s.perDevice[3].commandsPerQueue)
        ssd3_commands += c;
    EXPECT_EQ(ssd3_commands, 0u);
    EXPECT_EQ(s.perDevice[3].subOps, 0u);
    EXPECT_EQ(s.ejectedDevices, std::vector<unsigned>{3});
}

/**
 * A device that dies mid-run swallows the sub-ops in flight on it. With
 * no deadline or hedge to resolve them, they used to hang and the serve
 * lost their queries ("serving path lost queries: 43 of 44
 * completed"). Now each degrades when the device dies, and the sub-ops
 * issued after it degrade at issue, as with a dropout at t=0.
 */
TEST(TailTolerance, MidRunDropoutResolvesInFlightSubOps)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 4;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.host.ioQueues = 4;
    cfg.ssd.nvme.numQueues = 4;
    cfg.host.balancedQueueGrants = true;
    applyFaultPlan(cfg, FaultPlan::parse("dropout@3:at=200ms"));
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    opt.seed = 13;
    ModelRunner runner(sys, modelByName("RM1"), opt);

    // recssd_sim --serve --model RM1 --backend ndp --all-ssd --num-ssds 4
    //   --shard-policy range --fault-plan 'dropout@3:at=200ms'
    //   --queries 40 --qps 20 --seed 13
    ServeConfig scfg;
    scfg.arrivals.qps = 20.0;
    scfg.shape.minBatch = 16;
    scfg.shape.maxBatch = 16;
    scfg.batching.maxBatchSamples = 64;
    scfg.batching.maxWait = 500 * usec;
    scfg.batching.maxInFlight = 4;
    scfg.queries = 40;
    scfg.warmupQueries = 4;
    scfg.seed = 13;
    ServeStats s = runServe(runner, scfg);

    EXPECT_EQ(s.completedQueries, 40u);
    EXPECT_GT(s.degradedQueries, 0u);
    EXPECT_EQ(s.ejectedDevices, std::vector<unsigned>{3});
    ASSERT_EQ(s.perDevice.size(), 4u);
    EXPECT_GT(s.perDevice[3].subOps, 0u) << "ssd3 served before dying";
    const ShardedSlsBackend &b = *runner.shardedBackend();
    EXPECT_LT(b.completionsTotal(), b.issuesTotal())
        << "some sub-op must have been in flight when ssd3 died";
    EXPECT_EQ(b.deadlineMisses(), 0u);
}

/**
 * Fault stats surface per device: an injected inflation window shows
 * up in the flash counters and the injector's own accounting, and
 * only on the targeted device.
 */
TEST(TailTolerance, FaultStatsVisiblePerDevice)
{
    System sys(faultedConfig(2, 1, "inflate@1:at=0us,dur=200ms,factor=4"));
    auto table = sys.installTable(10'000, 16);

    ResilConfig rc;
    rc.hedge.mode = HedgeMode::Fixed;
    rc.hedge.fixedDelay = 5 * msec;
    ResilSet set(sys, rc);

    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = table.rows;
    spec.seed = 7;
    TraceGenerator gen(spec);
    for (unsigned i = 0; i < 4; ++i) {
        SlsOp op;
        op.table = &table;
        op.indices = gen.nextBatch(kBatch, kLookups);
        bool done = false;
        set.resil->runEx(op, [&](SlsResult, bool) { done = true; });
        sys.run();
        ASSERT_TRUE(done);
    }

    ASSERT_NE(sys.ssd(1).faultInjector(), nullptr);
    EXPECT_EQ(sys.ssd(0).faultInjector(), nullptr);
    EXPECT_EQ(sys.ssd(1).faultInjector()->inflationWindows(), 1u);
    EXPECT_GT(sys.ssd(1).flash().inflatedReads(), 0u);
    EXPECT_EQ(sys.ssd(0).flash().inflatedReads(), 0u);
}

}  // namespace
}  // namespace recssd
