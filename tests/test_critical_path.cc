/**
 * @file
 * Critical-path blame, utilization timelines and the SLO monitor.
 *
 * The load-bearing guarantees locked down here:
 *  - blame is exact: each request's critical-path slices partition its
 *    end-to-end latency tick for tick, healthy or faulted;
 *  - the one request sweep matches a brute-force reference on random
 *    traces, and blame folded by phase is the phase report exactly;
 *  - blame names the culprit: a die stalled by fault injection absorbs
 *    the dominant share of the tail's critical-path time, on that
 *    die's queue row;
 *  - fault injection and hedged duplicates never corrupt the trace
 *    (span ordering validates clean, no double-blame);
 *  - utilization timelines satisfy the Little's-law consistency audit
 *    and neither collector perturbs simulated timing;
 *  - SLO windows tile completion time and burn rates follow the
 *    (1 - attainment) / (1 - objective) convention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/core/system.h"
#include "src/fault/fault_plan.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/utilization.h"
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

ServeStats
runSmallServe(System &sys, const ServeConfig &scfg,
              RunnerOptions opt = RunnerOptions())
{
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);
    return runServe(runner, scfg);
}

/** Config with repeated stalls pinned to channel 0 / die 0. */
SystemConfig
stalledSystem()
{
    SystemConfig cfg = test::smallSystem();
    applyFaultPlan(cfg, FaultPlan::parse(
                            "stall@0:at=1ms,dur=2ms,period=4ms,count=32,"
                            "ch=0,die=0"));
    return cfg;
}

TEST(Blame, SlicesPartitionEndToEndExactly)
{
    System sys(test::smallSystem());
    sys.enableTracing();
    runSmallServe(sys, smallServe());

    const Tracer &tracer = sys.tracer();
    unsigned roots = 0;
    for (const SpanRecord &s : tracer.spans()) {
        if (s.phase != Phase::Request || std::strcmp(s.name, "query"))
            continue;
        ++roots;
        RequestBlame rb = blameRequest(tracer, s);
        EXPECT_EQ(rb.totalTicks(), rb.e2e)
            << "request " << rb.req
            << ": blame slices must partition the e2e interval";
        EXPECT_EQ(rb.e2e, s.end - s.begin);
        for (const RequestBlame::Slice &slice : rb.slices)
            EXPECT_GT(slice.ticks, 0u);
    }
    EXPECT_GT(roots, 0u);
}

TEST(Blame, ReportSharesSumToOneAndJsonIsWellFormed)
{
    System sys(test::smallSystem());
    sys.enableTracing();
    runSmallServe(sys, smallServe());

    BlameReport report = computeBlame(sys.tracer());
    EXPECT_GT(report.requests, 0u);
    EXPECT_GT(report.meanRequestUs, 0.0);
    EXPECT_GE(report.tailRequests, 1u);

    double total_fraction = 0.0;
    double tail_fraction = 0.0;
    double queueing = 0.0;
    for (const BlameRow &row : report.rows) {
        EXPECT_GT(row.totalUs, 0.0);
        EXPECT_GE(row.requests, 1u);
        total_fraction += row.fraction;
        tail_fraction += row.tailFraction;
        if (row.queueing)
            queueing += row.fraction;
        EXPECT_EQ(row.queueing, blameIsQueueing(row.name.c_str()));
    }
    EXPECT_NEAR(total_fraction, 1.0, 1e-9)
        << "blame shares must partition all request time";
    EXPECT_NEAR(tail_fraction, 1.0, 1e-9)
        << "tail shares must partition all tail time";
    EXPECT_NEAR(queueing, report.queueingFraction, 1e-9);

    // Rows are sorted by total blame, heaviest first.
    for (std::size_t i = 1; i < report.rows.size(); ++i)
        EXPECT_GE(report.rows[i - 1].totalUs, report.rows[i].totalUs);

    std::ostringstream os;
    report.writeJson(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"queueing_fraction\""), std::string::npos);
    EXPECT_NE(doc.find("\"resources\""), std::string::npos);

    std::ostringstream table;
    report.print(table);
    EXPECT_NE(table.str().find("critical-path blame"), std::string::npos);
}

TEST(Blame, PrintedRowsNameTheirPhase)
{
    // One (track, span) pair can carry time in two phases; the table
    // must tell its rows apart as blame.json does.
    BlameReport report;
    for (Phase phase : {Phase::NvmeXfer, Phase::ResultDma}) {
        BlameRow row;
        row.track = "ssd2.pcie";
        row.name = "xfer";
        row.phase = phase;
        row.requests = 3;
        row.totalUs = 10.0;
        report.rows.push_back(row);
    }
    std::ostringstream table;
    report.print(table);
    const std::string text = table.str();
    EXPECT_NE(text.find("phase"), std::string::npos);
    EXPECT_NE(text.find("nvme.xfer"), std::string::npos);
    EXPECT_NE(text.find("nvme.result_dma"), std::string::npos);
}

TEST(Blame, DieStallBlamesTheStalledDiesQueue)
{
    System sys(stalledSystem());
    sys.enableTracing();
    ServeConfig scfg = smallServe();
    scfg.queries = 40;
    runSmallServe(sys, scfg);

    BlameReport report = computeBlame(sys.tracer());
    const BlameRow *stalled = report.find("flash.ch0.die0", "wait");
    ASSERT_NE(stalled, nullptr)
        << "the stalled die's queue must appear in the blame report";
    EXPECT_TRUE(stalled->queueing);
    EXPECT_GT(stalled->totalUs, 0.0);

    // Among per-die queue rows, the stalled die carries the most
    // blame — the report names the culprit directly.
    for (const BlameRow &row : report.rows) {
        if (row.track.rfind("flash.ch", 0) != 0 || row.name != "wait" ||
            row.track == "flash.ch0.die0")
            continue;
        EXPECT_GE(stalled->totalUs, row.totalUs)
            << "healthy die " << row.track
            << " out-blamed the stalled die";
    }
}

TEST(Blame, FaultsAndHedgingKeepTheTraceCausal)
{
    // Die stalls + hedged sub-ops: duplicates complete late, faults
    // interleave spans — the trace must stay structurally clean and
    // every request's blame must still partition exactly (a hedge
    // double-charging its duplicate would break the invariant).
    SystemConfig cfg = stalledSystem();
    cfg.shard.numShards = 2;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.shard.replication = 2;
    System sys(cfg);
    sys.enableTracing();

    RunnerOptions opt;
    opt.resil.hedge.mode = HedgeMode::Fixed;
    opt.resil.hedge.fixedDelay = 300 * usec;
    ServeConfig scfg = smallServe();
    scfg.queries = 40;
    ServeStats s = runSmallServe(sys, scfg, opt);

    EXPECT_EQ(validateSpanOrdering(sys.tracer()), 0u)
        << "fault injection / hedging produced a causality violation";

    const Tracer &tracer = sys.tracer();
    for (const SpanRecord &span : tracer.spans()) {
        if (span.phase != Phase::Request ||
            std::strcmp(span.name, "query"))
            continue;
        RequestBlame rb = blameRequest(tracer, span);
        EXPECT_EQ(rb.totalTicks(), rb.e2e)
            << "hedged duplicates must not double-blame request "
            << rb.req;
    }
    EXPECT_GT(s.completedQueries, 0u);
}

TEST(Blame, SlicesFoldByPhaseToPhaseAttribution)
{
    // Blame and the phase report fold one sweep, so a request's blame
    // slices summed by phase must be its phase times exactly. PCIe
    // `xfer` spans carry nvme.xfer or nvme.result_dma on one (track,
    // name): a slice keyed without the phase folds one into the other.
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 4;
    cfg.shard.policy = ShardPolicy::RowRange;
    System sys(cfg);
    sys.enableTracing();
    runSmallServe(sys, smallServe());

    const Tracer &tracer = sys.tracer();
    unsigned roots = 0;
    unsigned mismatched = 0;
    for (const SpanRecord &s : tracer.spans()) {
        if (s.phase != Phase::Request || std::strcmp(s.name, "query"))
            continue;
        ++roots;
        RequestBlame rb = blameRequest(tracer, s);
        RequestAttribution ra = attributeRequest(tracer, s);
        Tick folded[numPhases] = {};
        for (const RequestBlame::Slice &slice : rb.slices)
            folded[static_cast<unsigned>(slice.phase)] += slice.ticks;
        bool same = true;
        for (unsigned p = 0; p < numPhases; ++p) {
            EXPECT_EQ(folded[p], ra.perPhase[p])
                << "request " << rb.req << ", phase "
                << phaseName(static_cast<Phase>(p));
            same = same && folded[p] == ra.perPhase[p];
        }
        mismatched += same ? 0 : 1;
    }
    EXPECT_GT(roots, 0u);
    EXPECT_EQ(mismatched, 0u) << "requests whose blame slices fold to "
                                 "other phase times, of " << roots;
}

/** Brute-force sweep: every elementary interval, every child. */
struct ReferenceSweep
{
    std::vector<const SpanRecord *> children;  ///< collection order
    std::vector<Tick> perChild;
    Tick uncovered = 0;
    Tick perPhase[numPhases] = {};
};

ReferenceSweep
referenceSweep(const Tracer &tracer, const SpanRecord &root)
{
    ReferenceSweep ref;
    const Tick lo = root.begin;
    const Tick hi = root.end;
    std::vector<std::pair<Tick, Tick>> clamped;
    for (std::uint64_t req : {root.req, root.parent}) {
        if (req == 0)
            continue;
        for (const SpanRecord &s : tracer.spans()) {
            if (s.req != req || s.phase == Phase::Request)
                continue;
            Tick b = std::max(s.begin, lo);
            Tick e = std::min(s.end == maxTick ? hi : s.end, hi);
            if (b >= e)
                continue;
            ref.children.push_back(&s);
            clamped.emplace_back(b, e);
        }
    }
    ref.perChild.assign(ref.children.size(), 0);

    std::vector<Tick> cuts = {lo, hi};
    for (const auto &[b, e] : clamped) {
        cuts.push_back(b);
        cuts.push_back(e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const Tick x = cuts[i];
        const Tick len = cuts[i + 1] - x;
        // Winner: the covering child with the largest (phase priority,
        // original begin, collection index); the deepest covering phase
        // is tracked on its own for the phase report.
        std::size_t best = ref.children.size();
        std::tuple<int, Tick, std::size_t> best_key{-1, 0, 0};
        int deepest = -1;
        for (std::size_t k = 0; k < ref.children.size(); ++k) {
            if (clamped[k].first > x || x >= clamped[k].second)
                continue;
            const SpanRecord &s = *ref.children[k];
            std::tuple<int, Tick, std::size_t> key{phasePriority(s.phase),
                                                   s.begin, k};
            if (key > best_key) {
                best_key = key;
                best = k;
            }
            deepest = std::max(deepest, phasePriority(s.phase));
        }
        if (best == ref.children.size()) {
            ref.uncovered += len;
            ref.perPhase[static_cast<unsigned>(Phase::Other)] += len;
        } else {
            ref.perChild[best] += len;
            ref.perPhase[static_cast<unsigned>(deepest)] += len;
        }
    }
    return ref;
}

TEST(Blame, SweepMatchesBruteForceReferenceOnRandomTraces)
{
    // Random traces dense in the sweep's edge cases: same-tick opens
    // and closes, spans opening before the root, open-ended spans,
    // `other`-phase children, zero-length spans, a parent batch's
    // spans, and (phase, begin) ties only the collection index breaks.
    const Phase phases[] = {Phase::SchedQueue, Phase::HostQueueWait,
                            Phase::NvmeXfer,   Phase::ResultDma,
                            Phase::FlashRead,  Phase::Other};
    const char *names[] = {"xfer", "wait", "read"};
    Rng rng(2024);
    for (unsigned trial = 0; trial < 400; ++trial) {
        EventQueue eq;
        Tracer tracer(eq);
        tracer.setEnabled(true);
        const TrackId tracks[] = {tracer.track("t0"), tracer.track("t1")};
        auto advance = [&](Tick by) {
            eq.scheduleAfter(by, []() {});
            eq.run();
        };

        advance(20);
        const std::uint64_t batch = tracer.newRequestId();
        SpanId batch_root = tracer.beginRequest("batch", batch);
        advance(rng.uniformInt(4));
        const std::uint64_t query = tracer.newRequestId();
        SpanId query_root = tracer.beginRequest("query", query);
        tracer.setRequestParent(query, batch);
        const Tick t0 = eq.now();
        const Tick len = 1 + rng.uniformInt(30);

        // Two phases per trial, so same-phase overlaps are common.
        const Phase pick[] = {phases[rng.uniformInt(6)],
                              phases[rng.uniformInt(6)]};
        const unsigned spans = 1 + static_cast<unsigned>(rng.uniformInt(24));
        for (unsigned i = 0; i < spans; ++i) {
            std::uint64_t req = rng.bernoulli(0.3) ? batch : query;
            if (rng.bernoulli(0.05))
                req = 0;  // unowned: never a child
            // Coarse begins (a 3-tick grid from 6 ticks before the
            // root) make (phase, begin) ties frequent.
            Tick begin = t0 - 6 + 3 * rng.uniformInt((len + 12) / 3);
            Tick end = rng.bernoulli(0.1)
                           ? maxTick
                           : begin + 3 * rng.uniformInt(6);
            tracer.span(tracks[rng.uniformInt(2)],
                        names[rng.uniformInt(3)], pick[rng.uniformInt(2)],
                        req, begin, end);
        }
        advance(len);
        tracer.end(query_root);
        advance(rng.uniformInt(5));
        tracer.end(batch_root);

        RequestSweep sweep(tracer, nullptr);
        for (const SpanRecord *root : sweep.roots()) {
            ReferenceSweep ref = referenceSweep(tracer, *root);
            RequestSweep::Result got = sweep.sweep(*root);
            ASSERT_EQ(got.charges.size(), ref.children.size())
                << "trial " << trial;
            for (std::size_t k = 0; k < ref.children.size(); ++k) {
                EXPECT_EQ(got.charges[k].span, ref.children[k])
                    << "trial " << trial << ", child " << k;
                EXPECT_EQ(got.charges[k].ticks, ref.perChild[k])
                    << "trial " << trial << ", child " << k;
            }
            EXPECT_EQ(got.uncovered, ref.uncovered) << "trial " << trial;

            RequestAttribution ra = attributeRequest(tracer, *root);
            for (unsigned p = 0; p < numPhases; ++p) {
                EXPECT_EQ(ra.perPhase[p], ref.perPhase[p])
                    << "trial " << trial << ", phase "
                    << phaseName(static_cast<Phase>(p));
            }
            if (HasFailure())
                return;  // one trial's diagnostics are enough
        }
    }
}

TEST(Blame, ValidateSpanOrderingFlagsCorruptTraces)
{
    EventQueue eq;
    Tracer tracer(eq);
    tracer.setEnabled(true);
    TrackId t = tracer.track("unit");

    std::uint64_t r = tracer.newRequestId();
    tracer.beginRequest("query", r);
    tracer.span(t, "ok", Phase::FlashRead, r, 5, 9);
    eq.scheduleAfter(20, []() {});
    eq.run();
    EXPECT_EQ(validateSpanOrdering(tracer), 0u);

    // A request that is its own batch parent is a cycle.
    tracer.setRequestParent(r, r);
    EXPECT_GT(validateSpanOrdering(tracer), 0u);
}

TEST(Utilization, LittlesLawAuditPassesOnAServeRun)
{
    System sys(test::smallSystem());
    UtilizationCollector &util = sys.enableUtilization(100 * usec);
    Tick end = 0;
    {
        runSmallServe(sys, smallServe());
        end = sys.eq().now();
    }
    ASSERT_FALSE(util.resources().empty());
    util.auditLittlesLaw();  // aborts on any bucketization drift

    for (const UtilizationCollector::ResourceSeries &rs :
         util.resources()) {
        EXPECT_GT(rs.ops, 0u) << rs.name;
        EXPECT_GE(rs.residencyTicks, rs.busyTicks) << rs.name;
        EXPECT_EQ(rs.residencyTicks, rs.busyTicks + rs.waitTicks)
            << rs.name;
        // A resource can never be busier than servers x elapsed time.
        EXPECT_LE(rs.busyTicks,
                  static_cast<Tick>(rs.servers) * (end ? end : 1))
            << rs.name;
    }

    // The contention points the tentpole promises are all on the map.
    EXPECT_NE(util.find("host.cores"), nullptr);
    EXPECT_NE(util.find("ndp.engine"), nullptr);
    const UtilizationCollector::ResourceSeries *die =
        util.find("flash.ch0.die0");
    ASSERT_NE(die, nullptr);
    EXPECT_GT(die->busyTicks, 0u);

    std::ostringstream os;
    util.writeJson(os, end);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"resources\""), std::string::npos);
    EXPECT_NE(doc.find("\"timeline\""), std::string::npos);
    EXPECT_NE(doc.find("flash.ch0.die0"), std::string::npos);
}

TEST(Utilization, CollectionDoesNotPerturbSimulatedTiming)
{
    ServeStats plain, collected;
    {
        System sys(test::smallSystem());
        plain = runSmallServe(sys, smallServe());
    }
    {
        System sys(test::smallSystem());
        sys.enableUtilization(50 * usec);
        collected = runSmallServe(sys, smallServe());
    }
    EXPECT_EQ(plain.meanLatencyUs, collected.meanLatencyUs);
    EXPECT_EQ(plain.p99Us, collected.p99Us);
    EXPECT_EQ(plain.maxLatencyUs, collected.maxLatencyUs);
    EXPECT_EQ(plain.achievedQps, collected.achievedQps);
}

TEST(Utilization, BucketIntegralsMatchHandComputedOps)
{
    EventQueue eq;
    UtilizationCollector util(eq, 10);
    util.setEnabled(true);

    // Op A: waits 5 (t=0..5), serves 10 (t=5..15) — spans 2 buckets.
    util.record("r", 0, 5, 15);
    // Op B: no wait, serves inside one bucket (t=22..27).
    util.record("r", 22, 22, 27);

    const UtilizationCollector::ResourceSeries *rs = util.find("r");
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->ops, 2u);
    EXPECT_EQ(rs->busyTicks, 15u);
    EXPECT_EQ(rs->waitTicks, 5u);
    EXPECT_EQ(rs->residencyTicks, 20u);
    ASSERT_EQ(rs->buckets.size(), 3u);
    EXPECT_EQ(rs->buckets[0].busy, 5u);     // t=5..10
    EXPECT_EQ(rs->buckets[0].waiting, 5u);  // t=0..5
    EXPECT_EQ(rs->buckets[0].arrivals, 1u);
    EXPECT_EQ(rs->buckets[1].busy, 5u);  // t=10..15
    EXPECT_EQ(rs->buckets[2].busy, 5u);  // t=22..27
    EXPECT_EQ(rs->buckets[2].arrivals, 1u);
    util.auditLittlesLaw();
}

TEST(Slo, WindowsTileCompletionTimeAndBurnRatesFollowConvention)
{
    SloConfig cfg;
    cfg.enabled = true;
    cfg.target = 1 * msec;
    cfg.objective = 0.9;
    cfg.window = 10 * msec;
    SloMonitor mon(cfg);

    // Window [0,10ms): 4 met, 1 missed. Window [10,20ms): all met.
    mon.record(1 * msec, 500 * usec);
    mon.record(2 * msec, 900 * usec);
    mon.record(3 * msec, 5 * msec);  // miss
    mon.record(4 * msec, 100 * usec);
    mon.record(9 * msec, 1 * msec);  // boundary: met
    mon.record(12 * msec, 200 * usec);
    mon.record(19 * msec, 300 * usec);
    mon.finish();

    ASSERT_EQ(mon.windows().size(), 2u);
    const SloMonitor::Window &w0 = mon.windows()[0];
    EXPECT_EQ(w0.start, 0u);
    EXPECT_EQ(w0.queries, 5u);
    EXPECT_EQ(w0.met, 4u);
    EXPECT_DOUBLE_EQ(w0.attainment(), 0.8);
    const SloMonitor::Window &w1 = mon.windows()[1];
    EXPECT_EQ(w1.start, 10 * msec);
    EXPECT_EQ(w1.queries, 2u);
    EXPECT_DOUBLE_EQ(w1.attainment(), 1.0);

    EXPECT_EQ(mon.totalQueries(), 7u);
    EXPECT_DOUBLE_EQ(mon.overallAttainment(), 6.0 / 7.0);
    // Burn rate: (1 - attainment) / (1 - objective), objective 0.9.
    EXPECT_DOUBLE_EQ(mon.burnRate(0.8), 2.0);
    EXPECT_DOUBLE_EQ(mon.burnRate(1.0), 0.0);
    EXPECT_DOUBLE_EQ(mon.worstWindowBurnRate(), 2.0);
    EXPECT_NEAR(mon.overallBurnRate(), (1.0 - 6.0 / 7.0) / 0.1, 1e-12);

    mon.finish();  // idempotent
    EXPECT_EQ(mon.windows().size(), 2u);
}

TEST(Slo, ServeHarnessSurfacesWindowsAndRegistryScalars)
{
    System sys(test::smallSystem());
    ServeConfig scfg = smallServe();
    scfg.slo.enabled = true;
    scfg.slo.target = 2 * msec;
    scfg.slo.objective = 0.95;
    scfg.slo.window = 2 * msec;
    ServeStats s = runSmallServe(sys, scfg);

    ASSERT_FALSE(s.sloWindows.empty());
    unsigned windowed = 0;
    for (const ServeStats::SloWindow &w : s.sloWindows) {
        windowed += w.queries;
        EXPECT_GE(w.attainment, 0.0);
        EXPECT_LE(w.attainment, 1.0);
        EXPECT_GE(w.burnRate, 0.0);
    }
    EXPECT_EQ(windowed, s.completedQueries)
        << "every measured query must land in exactly one window";
    EXPECT_GE(s.worstWindowBurnRate, s.errorBudgetBurnRate);

    // The monitor's scalars joined the registry (and thus stats JSON).
    EXPECT_EQ(sys.stats().valueOf("serve.slo.windows"),
              static_cast<double>(s.sloWindows.size()));
    EXPECT_EQ(sys.stats().valueOf("serve.slo.attainment"),
              s.sloMonitorAttainment);
    std::ostringstream os;
    sys.dumpStatsJson(os);
    EXPECT_NE(os.str().find("\"serve.slo.burn_rate\""),
              std::string::npos);
}

TEST(Slo, DisabledMonitorLeavesStatsUntouched)
{
    std::string with_run, without_run;
    {
        System sys(test::smallSystem());
        runSmallServe(sys, smallServe());
        std::ostringstream os;
        sys.dumpStatsJson(os);
        without_run = os.str();
    }
    EXPECT_EQ(without_run.find("serve.slo"), std::string::npos)
        << "default runs must not grow new registry entries";
}

TEST(Metrics, FinishClosesTheFinalPartialInterval)
{
    // Interval far longer than the run: without the end-of-run flush
    // the series would hold only the t=0 snapshot.
    System sys(test::smallSystem());
    MetricSampler &sampler = sys.startMetricSampler(10 * sec);
    runSmallServe(sys, smallServe());

    ASSERT_GE(sampler.rows().size(), 2u)
        << "the final partial interval was dropped";
    EXPECT_EQ(sampler.rows().back().ts, sys.eq().now());
    EXPECT_GT(sampler.rows().back().ts, sampler.rows().front().ts);

    // finish() again must not duplicate the closing row.
    std::size_t n = sampler.rows().size();
    sampler.finish();
    EXPECT_EQ(sampler.rows().size(), n);
}

TEST(Stats, FaultModeRunsExportTheSameColumnsOnEveryDevice)
{
    // Satellite regression: a fault plan targeting only device 1 must
    // still register fault.* on device 0 (zero-valued), so JSONL
    // exports carry identical columns across devices.
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 2;
    applyFaultPlan(cfg, FaultPlan::parse("stall@1:at=1ms,dur=1ms"));
    System sys(cfg);

    std::map<std::string, bool> want = {
        {"ssd0.fault.die_stalls", false},
        {"ssd1.fault.die_stalls", false},
        {"ssd0.fault.fw_pauses", false},
        {"ssd1.fault.fw_pauses", false},
    };
    for (const std::string &name : sys.stats().names()) {
        auto it = want.find(name);
        if (it != want.end())
            it->second = true;
    }
    for (const auto &[name, seen] : want)
        EXPECT_TRUE(seen) << name << " missing from the registry";

    // The forced columns read zero on the healthy device.
    EXPECT_EQ(sys.stats().valueOf("ssd0.fault.die_stalls"), 0.0);
}

}  // namespace
}  // namespace recssd
