/**
 * @file
 * Invariants of the multi-tenant QoS layer (`ctest -L qos`).
 *
 * The `QosScheduler` is driven against a synthetic service process (a
 * fixed-latency K-server bound to the admission window), so every
 * dmClock property is asserted exactly: work conservation,
 * reservation floors under saturation, weight-proportional shares,
 * limit clamps, starvation freedom, and byte-equal deterministic
 * replay of the grant log. Tenant-spec parsing gets its own grammar
 * lockdown, and the end-to-end harness (`runServeTenants`) is checked
 * for per-tenant accounting plus run-to-run determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/event_queue.h"
#include "src/qos/qos_scheduler.h"
#include "src/qos/tenant_serve.h"
#include "src/qos/tenant_spec.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

// ---------------------------------------------------------------------------
// Tenant-spec grammar

TEST(TenantSpec, ParsesInlineMix)
{
    TenantSet set = TenantSet::parse(
        "victim:model=RM1,qps=40,slo=20ms,res=20,weight=2,queries=50;"
        "antagonist:qps=400,arrival=bursty,burst=8,weight=1,limit=80,"
        "update_rate=500,update_skew=0.7,seed=7");
    ASSERT_EQ(set.size(), 2u);

    const TenantSpec &v = set.tenants[0];
    EXPECT_EQ(v.name, "victim");
    EXPECT_EQ(v.model, "RM1");
    EXPECT_DOUBLE_EQ(v.arrivals.qps, 40.0);
    EXPECT_EQ(v.slo, 20 * msec);
    EXPECT_DOUBLE_EQ(v.share.reservation, 20.0);
    EXPECT_DOUBLE_EQ(v.share.weight, 2.0);
    EXPECT_DOUBLE_EQ(v.share.limit, 0.0);
    EXPECT_EQ(v.queries, 50u);
    EXPECT_FALSE(v.updates.enabled());

    const TenantSpec &a = set.tenants[1];
    EXPECT_EQ(a.name, "antagonist");
    EXPECT_EQ(a.arrivals.process, ArrivalProcess::Bursty);
    EXPECT_DOUBLE_EQ(a.arrivals.burstiness, 8.0);
    EXPECT_DOUBLE_EQ(a.share.limit, 80.0);
    EXPECT_TRUE(a.updates.enabled());
    EXPECT_DOUBLE_EQ(a.updates.rate, 500.0);
    EXPECT_DOUBLE_EQ(a.updates.skew, 0.7);
    EXPECT_EQ(a.seed, 7u);
}

TEST(TenantSpec, DefaultsAreSane)
{
    TenantSet set = TenantSet::parse("solo");
    ASSERT_EQ(set.size(), 1u);
    const TenantSpec &t = set.tenants[0];
    EXPECT_EQ(t.model, "RM1");
    EXPECT_DOUBLE_EQ(t.share.weight, 1.0);
    EXPECT_DOUBLE_EQ(t.share.reservation, 0.0);
    EXPECT_EQ(t.slo, 50 * msec);
}

TEST(TenantSpec, ParsesShapeKeys)
{
    TenantSet set = TenantSet::parse("t:batch=4,tables=3,pool=1.5");
    const QueryShapeSpec &s = set.tenants[0].shape;
    EXPECT_EQ(s.minBatch, 4u);
    EXPECT_EQ(s.maxBatch, 4u);
    EXPECT_EQ(s.minTables, 3u);
    EXPECT_EQ(s.maxTables, 3u);
    EXPECT_DOUBLE_EQ(s.minPoolingScale, 1.5);
    EXPECT_DOUBLE_EQ(s.maxPoolingScale, 1.5);
}

TEST(TenantSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(TenantSet::parse(""), "empty");
    EXPECT_DEATH(TenantSet::parse("a;a"), "duplicate");
    EXPECT_DEATH(TenantSet::parse("t:bogus=1"), "bogus");
    EXPECT_DEATH(TenantSet::parse("t:qps=-3"), "qps");
    // Rates whose mean gap no Tick can represent.
    EXPECT_DEATH(TenantSet::parse("t:qps=1e-300"), "qps >= 1e-06");
    EXPECT_DEATH(TenantSet::parse("t:qps=10,update_rate=1e-300"),
                 "update_rate outside");
    EXPECT_DEATH(TenantSet::parse("t:qps=10,update_rate=1e12"),
                 "update_rate outside");
    EXPECT_DEATH(TenantSet::parse("t:weight=0"), "weight");
    EXPECT_DEATH(TenantSet::parse("t:res=50,limit=10"), "limit");
    EXPECT_DEATH(TenantSet::parse("bad name:qps=1"), "name");
    // std::stod stopped at the number and ignored what followed.
    EXPECT_DEATH(TenantSet::parse("t:qps=50x,queries=2"),
                 "tenant spec: bad number '50x'");
    EXPECT_DEATH(TenantSet::parse("t:qps=50,queries=2,weight=2abc"),
                 "tenant spec: bad number '2abc'");
}

TEST(TenantSpecDeathTest, RejectsBadTimes)
{
    auto slo = [](const char *time) {
        TenantSet::parse(std::string("t:qps=50,slo=") + time);
    };
    EXPECT_DEATH(slo("inf"), "tenant spec: time 'inf' needs a ns/us/ms/s");
    EXPECT_DEATH(slo("nan"), "tenant spec: time 'nan' needs a ns/us/ms/s");
    EXPECT_DEATH(slo("infs"), "tenant spec: time 'infs' is not finite");
    EXPECT_DEATH(slo("nanms"), "tenant spec: time 'nanms' is not finite");
    EXPECT_DEATH(slo("1e300s"), "tenant spec: time '1e300s' overflows");
    EXPECT_DEATH(slo("-1ms"), "tenant spec: negative time");
    EXPECT_DEATH(slo("5"), "tenant spec: time '5' needs a ns/us/ms/s");
    EXPECT_DEATH(slo("ms"), "tenant spec: bad time 'ms'");
}

TEST(TenantSpecDeathTest, RejectsHostileCounts)
{
    auto parse = [](const std::string &kvs) {
        TenantSet::parse("t:qps=10," + kvs);
    };
    // strtoul wraps a sign and the cast truncates past UINT_MAX; both
    // used to yield huge or wrong counts instead of a parse error.
    EXPECT_DEATH(parse("queries=-1"), "tenant spec: bad integer '-1'");
    EXPECT_DEATH(parse("queries=+5"), "tenant spec: bad integer '\\+5'");
    EXPECT_DEATH(parse("queries=99999999999"),
                 "tenant spec: integer '99999999999' out of range");
    EXPECT_DEATH(parse("batch=4294967297"),
                 "tenant spec: integer '4294967297' out of range");
    EXPECT_DEATH(parse("seed=-7"), "tenant spec: bad integer '-7'");
    EXPECT_DEATH(parse("queries=5x"), "tenant spec: bad integer '5x'");
}

TEST(TenantSpecDeathTest, RejectsNonFiniteNumbers)
{
    // qps=inf used to pass parsing and trip the load generator's
    // "exponential mean must be positive" deep inside the run.
    EXPECT_DEATH(TenantSet::parse("t:qps=inf"),
                 "tenant spec: non-finite number 'inf'");
    EXPECT_DEATH(TenantSet::parse("t:qps=nan"),
                 "tenant spec: non-finite number 'nan'");
    EXPECT_DEATH(TenantSet::parse("t:qps=10,weight=inf"),
                 "tenant spec: non-finite number 'inf'");
    EXPECT_DEATH(TenantSet::parse("t:qps=10,limit=-inf"),
                 "tenant spec: non-finite number '-inf'");
}

TEST(TenantSpec, AcceptsLargestCount)
{
    TenantSet set = TenantSet::parse("t:qps=10,seed=4294967295,queries=7");
    EXPECT_EQ(set.tenants[0].seed, 4294967295u);
    EXPECT_EQ(set.tenants[0].queries, 7u);
}

TEST(TenantSpec, LoadsFromFile)
{
    std::string path = testing::TempDir() + "/tenants_qos_test.txt";
    {
        std::ofstream f(path);
        f << "# comment line\n"
          << "victim:qps=10,res=5\n"
          << "\n"
          << "antagonist:qps=100,limit=20\n";
    }
    TenantSet set = TenantSet::load(path);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.tenants[0].name, "victim");
    EXPECT_DOUBLE_EQ(set.tenants[1].share.limit, 20.0);
}

// ---------------------------------------------------------------------------
// Scheduler invariants against a synthetic service process

/** Fixed-latency service: each grant completes `service` later. */
struct FakeBackend
{
    EventQueue &eq;
    Tick service;
    std::uint64_t dispatched = 0;

    QosScheduler::Dispatch hook()
    {
        return [this](unsigned, const QueryShape &,
                      QosScheduler::QueryDone done, std::uint64_t,
                      SpanId) {
            ++dispatched;
            Tick arrival = eq.now();
            eq.scheduleAfter(service, [this, arrival,
                                       done = std::move(done)]() {
                QueryTimes times;
                times.arrival = arrival;
                times.dispatch = arrival;
                times.complete = eq.now();
                done(times);
            });
        };
    }
};

struct Harness
{
    EventQueue eq;
    FakeBackend backend;
    std::unique_ptr<QosScheduler> qos;
    /** Completion ticks per tenant. */
    std::vector<std::vector<Tick>> completions;

    Harness(std::vector<QosTenant> tenants, const QosParams &params,
            Tick service)
        : backend{eq, service}
    {
        completions.resize(tenants.size());
        qos = std::make_unique<QosScheduler>(eq, std::move(tenants),
                                             params, backend.hook());
    }

    /** Schedule `n` submissions for `tenant` at `at` (same tick). */
    void burst(unsigned tenant, unsigned n, Tick at)
    {
        for (unsigned i = 0; i < n; ++i) {
            eq.schedule(at, [this, tenant]() {
                qos->submit(tenant, QueryShape{}, [this, tenant](
                                                      const QueryTimes &t) {
                    completions[tenant].push_back(t.complete);
                });
            });
        }
    }
};

TEST(QosScheduler, WorkConservingSingleTenant)
{
    // 40 queries at t=0, window 4, service 1ms: the window never
    // idles, so the makespan is exactly (40/4) * 1ms.
    QosParams params;
    params.window = 4;
    Harness h({{"solo", TenantShare{}}}, params, 1 * msec);
    h.burst(0, 40, 0);
    h.eq.run();
    ASSERT_EQ(h.completions[0].size(), 40u);
    EXPECT_EQ(h.eq.now(), 10 * msec);
    EXPECT_EQ(h.qos->counters(0).admitted, 40u);
    EXPECT_EQ(h.qos->counters(0).completed, 40u);
    EXPECT_EQ(h.qos->inService(), 0u);
}

TEST(QosScheduler, WorkConservingAcrossTenants)
{
    // An idle high-weight tenant must not reserve capacity: the busy
    // tenant alone drains at full speed, same makespan as solo.
    QosParams params;
    params.window = 4;
    Harness h({{"idle", TenantShare{0.0, 100.0, 0.0}},
               {"busy", TenantShare{0.0, 1.0, 0.0}}},
              params, 1 * msec);
    h.burst(1, 40, 0);
    h.eq.run();
    EXPECT_EQ(h.eq.now(), 10 * msec);
    EXPECT_EQ(h.qos->counters(0).admitted, 0u);
    EXPECT_EQ(h.qos->counters(1).admitted, 40u);
}

TEST(QosScheduler, WeightProportionalShares)
{
    // Both tenants backlogged from t=0 with service slow enough that
    // the window is the bottleneck: grants split 3:1 by weight.
    QosParams params;
    params.window = 2;
    Harness h({{"heavy", TenantShare{0.0, 3.0, 0.0}},
               {"light", TenantShare{0.0, 1.0, 0.0}}},
              params, 1 * msec);
    h.burst(0, 300, 0);
    h.burst(1, 100, 0);
    h.eq.run();

    // Steady-state check on the first 200 grants (everything drains
    // eventually; the *order* carries the shares).
    const auto &log = h.qos->grantLog();
    ASSERT_EQ(log.size(), 400u);
    unsigned heavy = 0;
    for (std::size_t i = 0; i < 200; ++i)
        if (log[i].first == 0)
            ++heavy;
    // Exactly 3:1 modulo the two-slot window boundary.
    EXPECT_NEAR(heavy, 150u, 4);
    EXPECT_EQ(h.qos->counters(0).reservationGrants, 0u);
    EXPECT_EQ(h.qos->counters(1).reservationGrants, 0u);
}

TEST(QosScheduler, ReservationFloorUnderSaturation)
{
    // Service capacity: window 4 / 2ms = 2000 grants/s. The
    // antagonist (weight 50) floods; the victim (res 200, weight 1)
    // must still be granted at >= its floor, and mostly through the
    // reservation phase.
    QosParams params;
    params.window = 4;
    Harness h({{"victim", TenantShare{200.0, 1.0, 0.0}},
               {"antagonist", TenantShare{0.0, 50.0, 0.0}}},
              params, 2 * msec);
    h.burst(0, 100, 0);     // 100 queries at res 200/s -> ~0.5s floor
    h.burst(1, 2000, 0);    // backlogged the whole run
    h.eq.run();

    ASSERT_EQ(h.completions[0].size(), 100u);
    Tick last = 0;
    for (Tick t : h.completions[0])
        last = std::max(last, t);
    // Floor: 100 queries / 200 per sec = 500ms (+ service + slack).
    EXPECT_LE(last, 520 * msec)
        << "victim must drain at its reserved rate under saturation";
    const auto &c = h.qos->counters(0);
    EXPECT_GE(c.reservationGrants, 90u)
        << "the floor must be honored via the reservation phase";
}

TEST(QosScheduler, LimitClampsBackloggedTenant)
{
    // Limit 100/s with instant service and a huge window: the clamp —
    // not capacity — paces the drain, so 100 queries take ~1s.
    QosParams params;
    params.window = 64;
    Harness h({{"capped", TenantShare{0.0, 1.0, 100.0}},
               {"free", TenantShare{0.0, 1.0, 0.0}}},
              params, 10 * usec);
    h.burst(0, 100, 0);
    h.burst(1, 100, 0);
    h.eq.run();

    Tick last_capped = 0;
    for (Tick t : h.completions[0])
        last_capped = std::max(last_capped, t);
    Tick last_free = 0;
    for (Tick t : h.completions[1])
        last_free = std::max(last_free, t);

    EXPECT_GE(last_capped, 990 * msec) << "limit must pace the drain";
    EXPECT_LE(last_free, 10 * msec)
        << "one tenant's limit must not delay another";
    EXPECT_GT(h.qos->counters(0).limitDeferrals, 0u);
    EXPECT_EQ(h.qos->counters(1).limitDeferrals, 0u);
}

TEST(QosScheduler, StarvationFreedom)
{
    // A near-zero-weight tenant vs a flooding antagonist: its tags are
    // fixed at submission while the antagonist's keep advancing with
    // real time, so every one of its queries is eventually granted.
    QosParams params;
    params.window = 2;
    Harness h({{"tiny", TenantShare{0.0, 0.05, 0.0}},
               {"flood", TenantShare{0.0, 100.0, 0.0}}},
              params, 1 * msec);
    h.burst(0, 5, 0);
    for (unsigned burst = 0; burst < 20; ++burst)
        h.burst(1, 100, burst * 100 * msec);
    h.eq.run();
    EXPECT_EQ(h.qos->counters(0).completed, 5u);
    EXPECT_EQ(h.qos->counters(1).completed, 2000u);
}

TEST(QosScheduler, FifoIgnoresShares)
{
    // Under the A/B baseline policy, the grant order is exactly the
    // submission order no matter how lopsided the shares are.
    QosParams params;
    params.policy = QosPolicy::Fifo;
    params.window = 1;
    Harness h({{"a", TenantShare{1000.0, 1000.0, 0.0}},
               {"b", TenantShare{0.0, 0.001, 0.0}}},
              params, 1 * msec);
    // Interleave: b, a, b, a ... submission seq is global.
    for (unsigned i = 0; i < 10; ++i) {
        h.burst(1, 1, i * 10 * usec);
        h.burst(0, 1, i * 10 * usec + 5 * usec);
    }
    h.eq.run();
    const auto &log = h.qos->grantLog();
    ASSERT_EQ(log.size(), 20u);
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].second, i) << "grant " << i << " out of order";
        EXPECT_EQ(log[i].first, i % 2 == 0 ? 1u : 0u);
    }
    EXPECT_EQ(h.qos->counters(0).reservationGrants, 0u)
        << "fifo must not consult the share triple";
}

TEST(QosScheduler, DeterministicReplayByteEqual)
{
    auto run = [](std::vector<std::pair<unsigned, std::uint64_t>> *out) {
        QosParams params;
        params.window = 3;
        Harness h({{"a", TenantShare{50.0, 2.0, 0.0}},
                   {"b", TenantShare{0.0, 1.0, 200.0}},
                   {"c", TenantShare{0.0, 4.0, 0.0}}},
                  params, 700 * usec);
        h.burst(0, 60, 0);
        h.burst(1, 90, 3 * msec);
        h.burst(2, 120, 1 * msec);
        h.eq.run();
        *out = h.qos->grantLog();
    };
    std::vector<std::pair<unsigned, std::uint64_t>> first, second;
    run(&first);
    run(&second);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "grant log must replay byte-equal";
}

TEST(QosScheduler, ChargeAuxDrainsTheSameLimitBudget)
{
    // Aux charges (update flushes) spend the limit budget reads use:
    // after `k` charges the next read is pushed k spacings out.
    QosParams params;
    params.window = 8;
    Harness h({{"rw", TenantShare{0.0, 1.0, 100.0}}}, params, 10 * usec);

    Tick t1 = h.qos->chargeAux(0, 0);
    EXPECT_EQ(t1, 10 * msec) << "first charge matures one spacing out";
    Tick t2 = h.qos->chargeAux(0, 0);
    EXPECT_EQ(t2, 20 * msec);
    EXPECT_EQ(h.qos->counters(0).auxCharges, 2u);

    // A read submitted now is tagged behind the two aux charges.
    h.burst(0, 1, 0);
    h.eq.run();
    ASSERT_EQ(h.completions[0].size(), 1u);
    EXPECT_GE(h.completions[0][0], 30 * msec)
        << "read must queue behind the spent aux budget";
}

TEST(QosScheduler, ChargeAuxUnlimitedTenantRunsNow)
{
    QosParams params;
    Harness h({{"free", TenantShare{}}}, params, 10 * usec);
    EXPECT_EQ(h.qos->chargeAux(0, 5 * msec), 5 * msec);
}

// ---------------------------------------------------------------------------
// End-to-end harness

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

TenantServeConfig
smallMix()
{
    TenantServeConfig cfg;
    cfg.tenants = TenantSet::parse(
        "victim:model=tiny,qps=50,batch=2,slo=10ms,res=25,weight=1,"
        "queries=20;"
        "antagonist:model=tiny,qps=200,batch=2,weight=1,limit=120,"
        "queries=40");
    cfg.modelResolver = [](const std::string &) { return tinyModel(); };
    cfg.qos.window = 4;
    cfg.batching.maxBatchSamples = 8;
    cfg.batching.maxWait = 200 * usec;
    cfg.batching.maxInFlight = 2;
    cfg.warmupQueries = 4;
    cfg.seed = 77;
    return cfg;
}

RunnerOptions
tinyOptions()
{
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    return opt;
}

TEST(TenantServe, PerTenantAccountingEndToEnd)
{
    TenantServeConfig cfg = smallMix();
    System sys(test::smallSystem());
    TenantServeStats s = runServeTenants(sys, tinyOptions(), cfg);

    ASSERT_EQ(s.perTenant.size(), 2u);
    const auto &v = s.perTenant[0];
    const auto &a = s.perTenant[1];
    EXPECT_EQ(v.name, "victim");
    EXPECT_EQ(v.completedQueries, 20u);
    EXPECT_EQ(a.completedQueries, 40u);
    EXPECT_GT(v.p99Us, 0.0);
    EXPECT_GE(v.sloAttainment, 0.0);
    EXPECT_LE(v.sloAttainment, 1.0);
    EXPECT_GT(v.achievedQps, 0.0);
    // Warmup queries are admitted but not measured.
    EXPECT_EQ(v.qos.completed, 24u);
    EXPECT_EQ(a.qos.completed, 44u);
    EXPECT_EQ(s.completedQueries, 60u);
    EXPECT_EQ(s.totalAdmitted, 68u);

    // Per-tenant registry scalars exist in the stats JSON.
    std::ostringstream os;
    sys.dumpStatsJson(os);
    std::string json = os.str();
    for (const char *key :
         {"serve.tenant.victim.submitted", "serve.tenant.victim.p99_us",
          "serve.tenant.victim.reservation_grants",
          "serve.tenant.antagonist.slo_attainment",
          "serve.tenant.antagonist.limit_deferrals"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(TenantServe, RunToRunDeterminism)
{
    auto run = []() {
        TenantServeConfig cfg = smallMix();
        System sys(test::smallSystem());
        runServeTenants(sys, tinyOptions(), cfg);
        std::ostringstream os;
        sys.dumpStatsJson(os);
        return os.str();
    };
    std::string first = run();
    std::string second = run();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "tenant serve stats JSON must be byte-identical run to run";
}

TEST(TenantServe, SloMonitorPerTenantTargets)
{
    // The victim's 1 us target is unmeetable, the antagonist's 10 s
    // target is always met: each monitor must score its own tenant's
    // queries against that tenant's target, not a shared one.
    auto run = [](TenantServeStats &s) {
        TenantServeConfig cfg = smallMix();
        cfg.tenants = TenantSet::parse(
            "victim:model=tiny,qps=50,batch=2,slo=1us,res=25,weight=1,"
            "queries=20;"
            "antagonist:model=tiny,qps=200,batch=2,slo=10s,weight=1,"
            "limit=120,queries=40");
        cfg.slo.enabled = true;
        cfg.slo.objective = 0.9;
        cfg.slo.window = 20 * msec;
        System sys(test::smallSystem());
        s = runServeTenants(sys, tinyOptions(), cfg);
        std::ostringstream os;
        sys.dumpStatsJson(os);
        return os.str();
    };
    TenantServeStats s;
    std::string first = run(s);

    ASSERT_EQ(s.perTenant.size(), 2u);
    for (const auto &pt : s.perTenant) {
        ASSERT_FALSE(pt.sloWindows.empty()) << pt.name;
        unsigned windowed = 0;
        for (const ServeStats::SloWindow &w : pt.sloWindows)
            windowed += w.queries;
        EXPECT_EQ(windowed, pt.completedQueries) << pt.name;
        EXPECT_DOUBLE_EQ(pt.sloMonitorAttainment, pt.sloAttainment)
            << pt.name;
    }
    EXPECT_DOUBLE_EQ(s.perTenant[0].sloMonitorAttainment, 0.0);
    EXPECT_DOUBLE_EQ(s.perTenant[1].sloMonitorAttainment, 1.0);
    EXPECT_GT(s.perTenant[0].errorBudgetBurnRate, 0.0);
    EXPECT_DOUBLE_EQ(s.perTenant[1].errorBudgetBurnRate, 0.0);

    TenantServeStats again;
    EXPECT_EQ(first, run(again))
        << "tenant serve stats JSON with SLO monitors must be "
           "byte-identical run to run";
}

TEST(TenantServe, TenantUpdatesChargeTheLimitBudget)
{
    TenantServeConfig cfg;
    cfg.tenants = TenantSet::parse(
        "rw:model=tiny,qps=50,batch=2,weight=1,limit=60,"
        "update_rate=2000,update_skew=0.8,queries=30");
    cfg.modelResolver = [](const std::string &) { return tinyModel(); };
    cfg.qos.window = 4;
    cfg.batching.maxBatchSamples = 8;
    cfg.batching.maxWait = 200 * usec;
    cfg.batching.maxInFlight = 2;
    cfg.warmupQueries = 4;
    cfg.seed = 31;

    System sys(test::smallSystem());
    TenantServeStats s = runServeTenants(sys, tinyOptions(), cfg);
    ASSERT_EQ(s.perTenant.size(), 1u);
    const auto &t = s.perTenant[0];
    EXPECT_GT(t.updatesSubmitted, 0u);
    EXPECT_EQ(t.updatesApplied, t.updatesSubmitted);
    EXPECT_GT(t.updateFlushes, 0u);
    // Reads + a 2000 rows/s stream against a 60 ops/s limit: the
    // flusher must have been held back by the shared budget.
    EXPECT_GT(t.updateAdmissionDeferrals, 0u);
    EXPECT_GT(t.qos.auxCharges, 0u);
}

}  // namespace
}  // namespace recssd
