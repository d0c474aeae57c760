#include "hostbench/src/workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "hostbench/src/host_clock.h"
#include "hostbench/src/oracle.h"
#include "hostbench/src/report.h"
#include "src/common/random.h"
#include "src/obs/critical_path.h"

namespace hostbench
{

using namespace recssd;

namespace
{

/**
 * Why each workload exists (see README.md for the layer map):
 *  - ndp_4ssd_uniform: the paper's NDP path at four row-range shards;
 *    kernel, flash, FTL translation, the SLS engine and the shard
 *    scatter dominate, host caches idle.
 *  - base_1ssd_zipf: the conventional-SSD baseline, one NVMe command
 *    per page, host LRU absorbing about half the lookups; host, nvme
 *    and cache dominate, NDP and sharding bypassed.
 *  - qos_mixed_rw_gc: a reserved read-only victim beside a bursty,
 *    limit-capped antagonist that also streams row updates, on a small
 *    drive at its GC watermark; write path, GC, epoch fence and QoS.
 *  ndp_4ssd_uniform's traced run also serves with the simulator's
 *  tracer, blame and utilization collector on, which measures the obs
 *  layer and must simulate exactly what the untraced serve does.
 *
 * The single-stream arrivals are fixed-gap rather than Poisson (still
 * open loop in simulated time): with Poisson gaps, sim_qps and
 * sim_p95_us moved 10-11% (quartile spread over median) across seeds at
 * 200 queries, wider than any bound a regression gate can use.
 */
std::vector<WorkloadSpec>
makeWorkloads()
{
    WorkloadSpec ndp;
    ndp.name = "ndp_4ssd_uniform";
    ndp.numSsds = 4;
    ndp.backend = EmbeddingBackendKind::Ndp;
    ndp.trace = TraceKind::Uniform;
    ndp.qps = 30.0;
    ndp.batch = 4;
    ndp.queries = 200;
    ndp.warmup = 10;
    ndp.measuresObs = true;

    WorkloadSpec base;
    base.name = "base_1ssd_zipf";
    base.backend = EmbeddingBackendKind::BaselineSsd;
    base.tableRows = 100'000;
    base.hostLruCache = true;
    base.trace = TraceKind::Zipf;
    base.qps = 4.8;
    base.batch = 4;
    base.queries = 200;
    base.warmup = 10;

    WorkloadSpec qos;
    qos.name = "qos_mixed_rw_gc";
    qos.kind = WorkloadKind::Tenants;
    qos.ioQueues = 8;
    qos.smallDriveAtGcWatermark = true;
    qos.model = "small";
    qos.backend = EmbeddingBackendKind::Ndp;
    qos.trace = TraceKind::Uniform;
    qos.tenants =
        "victim:model=small,qps=60,arrival=fixed,batch=8,slo=20ms,res=60,"
        "weight=1,queries=1000;"
        "antagonist:model=small,qps=600,arrival=bursty,burst=8,batch=4,"
        "weight=1,limit=120,update_rate=2000,update_skew=0.8,queries=2000";
    qos.batch = 8;  // the victim's: the ladder's query shape

    return {ndp, base, qos};
}

/** SLS ops the oracle checks on a served machine. */
constexpr unsigned oracleOps = 16;

/** First scratch page of the GC prefill (beyond every table slot). */
constexpr Lpn scratchBase = 8 * slsTableAlign;
constexpr Lpn scratchPages = 3000;

/**
 * Overwrite random scratch pages until only the rows the mix's tables
 * will claim, plus one, sit above the GC high watermark. The tables
 * install (from the top of the drive) inside runServeTenants, which
 * leaves the drive at its watermark full of invalidated pages: the
 * first serve-time writes start collection, migrating live pages (the
 * ext_update_interference regime, reached without colliding with the
 * bulk table regions).
 */
void
prefillToGcWatermark(System &sys, const ModelConfig &model,
                     std::uint64_t seed)
{
    const FlashParams &fp = sys.config().ssd.flash;
    const std::uint64_t row_pages =
        std::uint64_t(fp.pagesPerBlock) * fp.numChannels * fp.diesPerChannel;
    std::uint64_t table_rows = 0;
    for (const TableGroup &g : model.tables) {
        std::uint64_t pages = (g.rows + g.rowsPerPage - 1) / g.rowsPerPage;
        table_rows += g.count * ((pages + row_pages - 1) / row_pages);
    }
    const std::uint64_t stop_at =
        sys.config().ssd.ftl.gcHighWatermarkRows + table_rows + 1;
    auto &blocks = sys.ssd().ftl().blocks();
    const unsigned page = sys.driver().pageSize();
    Rng rng(seed * 2654435761u + 7);
    while (blocks.freeRows() > stop_at) {
        unsigned burst = sys.driver().numQueues();
        auto left = std::make_shared<unsigned>(burst);
        for (unsigned q = 0; q < burst; ++q) {
            auto data = std::make_shared<std::vector<std::byte>>(
                page, std::byte{0x5A});
            Lpn lpn = scratchBase + rng.uniformInt(scratchPages);
            sys.driver().writePage(q, lpn, data, [left]() { --*left; });
        }
        while (*left > 0 && sys.eq().runOne()) {
        }
    }
}

void
appendField(std::string &out, const char *name, double value)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, value);
    out += buf;
}

std::string
serveReport(const ServeStats &s)
{
    std::string r;
    appendField(r, "p50", s.p50Us);
    appendField(r, "p95", s.p95Us);
    appendField(r, "p99", s.p99Us);
    appendField(r, "p999", s.p999Us);
    appendField(r, "mean", s.meanLatencyUs);
    appendField(r, "max", s.maxLatencyUs);
    appendField(r, "queue", s.meanQueueUs);
    appendField(r, "service", s.meanServiceUs);
    appendField(r, "qps", s.achievedQps);
    appendField(r, "completed", s.completedQueries);
    appendField(r, "batches", static_cast<double>(s.batchesDispatched));
    appendField(r, "coalesced", s.avgCoalescedSamples);
    appendField(r, "depth", s.maxSchedulerDepth);
    appendField(r, "host_served", s.hostServedFraction);
    appendField(r, "degraded", s.degradedQueries);
    appendField(r, "scattered", static_cast<double>(s.scatteredOps));
    for (const auto &d : s.perDevice) {
        appendField(r, "dev.subops", static_cast<double>(d.subOps));
        appendField(r, "dev.p95", d.subOpP95Us);
        for (std::uint64_t c : d.commandsPerQueue)
            appendField(r, "dev.cmds", static_cast<double>(c));
    }
    return r;
}

std::string
tenantReport(const TenantServeStats &s)
{
    std::string r;
    for (const auto &t : s.perTenant) {
        r += t.name + "\n";
        appendField(r, "p50", t.p50Us);
        appendField(r, "p95", t.p95Us);
        appendField(r, "p99", t.p99Us);
        appendField(r, "mean", t.meanLatencyUs);
        appendField(r, "queue", t.meanQueueUs);
        appendField(r, "service", t.meanServiceUs);
        appendField(r, "qps", t.achievedQps);
        appendField(r, "completed", t.completedQueries);
        appendField(r, "degraded", t.degradedQueries);
        appendField(r, "admitted", static_cast<double>(t.qos.admitted));
        appendField(r, "res_grants",
                    static_cast<double>(t.qos.reservationGrants));
        appendField(r, "limit_deferrals",
                    static_cast<double>(t.qos.limitDeferrals));
        appendField(r, "updates", static_cast<double>(t.updatesApplied));
        appendField(r, "upd_deferrals",
                    static_cast<double>(t.updateAdmissionDeferrals));
    }
    appendField(r, "mix.completed", s.completedQueries);
    appendField(r, "mix.qps", s.achievedQps);
    appendField(r, "mix.batches", static_cast<double>(s.batchesDispatched));
    return r;
}

ServeConfig
serveConfig(const WorkloadSpec &spec, std::uint64_t seed)
{
    ServeConfig c;
    c.arrivals.process = ArrivalProcess::Fixed;
    c.arrivals.qps = spec.qps;
    c.shape.minBatch = spec.batch;
    c.shape.maxBatch = spec.batch;
    c.batching.maxBatchSamples = 4 * spec.batch;
    c.batching.maxWait = 500 * usec;
    c.batching.maxInFlight = 4;
    c.queries = spec.queries;
    c.warmupQueries = spec.warmup;
    c.seed = seed;
    return c;
}

/** Busy time summed over every flash channel of every SSD. */
double
channelBusy(System &sys)
{
    double busy = 0.0;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        FlashArray &flash = sys.ssd(d).flash();
        for (unsigned ch = 0; ch < flash.params().numChannels; ++ch)
            busy += static_cast<double>(flash.channelBusyTime(ch));
    }
    return busy;
}

unsigned
channelCount(System &sys)
{
    unsigned n = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        n += sys.ssd(d).flash().params().numChannels;
    return n;
}

std::uint64_t
fenceRedirects(System &sys)
{
    std::uint64_t n = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        n += sys.ssd(d).slsEngine().fenceRedirects();
    return n;
}

/** Write the observability artifacts; fills the obs fields of `r`. */
void
exportObservability(System &sys, const std::string &dir, RepResult &r,
                    SpanRecorder *spans, SpanIndex parent)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const fs::path blame_path = fs::path(dir) / "blame.json";
    const fs::path trace_path = fs::path(dir) / "trace.json";
    const fs::path util_path = fs::path(dir) / "util.json";
    r.traceSpans = sys.tracer().spans().size();
    {
        ScopedSpan span(spans, "blame", parent);
        std::int64_t t0 = hostNowNs();
        BlameReport blame = computeBlame(sys.tracer());
        std::ofstream os(blame_path);
        blame.writeJson(os);
        r.blameNs = hostNowNs() - t0;
    }
    {
        ScopedSpan span(spans, "export", parent);
        std::int64_t t0 = hostNowNs();
        {
            std::ofstream os(trace_path);
            sys.tracer().writeChromeTrace(os);
        }
        {
            std::ofstream os(util_path);
            sys.utilization()->writeJson(os, sys.eq().now());
        }
        r.exportNs = hostNowNs() - t0;
    }
    r.traceBytes = fs::file_size(trace_path);
    fs::remove_all(dir);
}

}  // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

ModelConfig
modelFor(const WorkloadSpec &spec)
{
    if (spec.model != "small") {
        ModelConfig m = modelByName(spec.model);
        for (TableGroup &g : m.tables)
            g.rows = spec.tableRows ? spec.tableRows : g.rows;
        return m;
    }
    // Two tables packed 64 vectors per page (ext_update_interference):
    // the working set fits the small drive and every update is a
    // read-modify-write of its page.
    ModelConfig m;
    m.name = "small";
    m.tables = {TableGroup{2, 40'000, 16, 8, 4, 64}};
    m.denseInputs = 8;
    m.bottomMlp = {16, 8};
    m.topMlp = {32, 1};
    m.embeddingDominated = true;
    return m;
}

RunnerOptions
runnerOptions(const WorkloadSpec &spec, std::uint64_t seed)
{
    RunnerOptions opt;
    opt.backend = spec.backend;
    opt.forceAllTablesOnSsd = true;
    opt.hostLruCache = spec.hostLruCache;
    opt.trace.kind = spec.trace;
    opt.seed = seed;
    return opt;
}

TenantServeConfig
tenantConfig(const WorkloadSpec &spec, std::uint64_t seed)
{
    TenantServeConfig c;
    c.tenants = TenantSet::parse(spec.tenants);
    c.modelResolver = [spec](const std::string &) { return modelFor(spec); };
    c.qos.policy = QosPolicy::Dmclock;
    c.qos.window = 8;
    c.batching.maxBatchSamples = 16;
    c.batching.maxWait = 0;
    c.batching.maxInFlight = 4;
    c.seed = seed;
    return c;
}

Machine
buildMachine(const WorkloadSpec &spec, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.shard.numShards = spec.numSsds;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.host.ioQueues = spec.ioQueues;
    cfg.ssd.nvme.numQueues = spec.ioQueues;
    cfg.host.balancedQueueGrants = true;
    if (spec.smallDriveAtGcWatermark) {
        cfg.ssd.flash.blocksPerDie = 24;
        cfg.ssd.flash.pagesPerBlock = 8;
    }
    Machine m;
    m.sys = std::make_unique<System>(cfg);
    if (spec.kind == WorkloadKind::Serve) {
        m.runner = std::make_unique<ModelRunner>(
            *m.sys, modelFor(spec), runnerOptions(spec, seed));
    }
    if (spec.smallDriveAtGcWatermark)
        prefillToGcWatermark(*m.sys, modelFor(spec), seed);
    return m;
}

std::map<std::string, double>
statSnapshot(const System &sys)
{
    std::map<std::string, double> out;
    const auto &names = sys.stats().names();
    const std::vector<double> values = sys.stats().sample();
    for (std::size_t i = 0; i < names.size() && i < values.size(); ++i)
        out[names[i]] = values[i];
    return out;
}

double
deviceSum(const std::map<std::string, double> &stats, unsigned num_ssds,
          const std::string &suffix)
{
    auto get = [&stats](const std::string &name) {
        auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second;
    };
    if (num_ssds == 1)
        return get(suffix);
    double sum = 0.0;
    for (unsigned d = 0; d < num_ssds; ++d)
        sum += get("ssd" + std::to_string(d) + "." + suffix);
    return sum;
}

RepResult
runRep(const WorkloadSpec &spec, std::uint64_t seed, bool obs,
       const std::string &artifact_dir, SpanRecorder *spans,
       SpanIndex parent, std::uint64_t rep_id, OracleTally *oracle)
{
    ScopedSpan rep_span(spans, "rep", parent, rep_id);
    RepResult r;

    std::int64_t t0 = hostNowNs();
    Machine m;
    {
        ScopedSpan span(spans, "setup", rep_span.index(), rep_id);
        m = buildMachine(spec, seed);
    }
    System &sys = *m.sys;
    if (obs) {
        sys.enableTracing();
        sys.enableUtilization(1000 * usec);
    }
    r.setupNs = hostNowNs() - t0;

    std::string report;
    const std::map<std::string, double> stats_before = statSnapshot(sys);
    const std::uint64_t events_before = sys.eq().executed();
    const double busy_before = channelBusy(sys);
    const Tick now_before = sys.eq().now();
    const std::uint64_t redirects_before = fenceRedirects(sys);
    std::int64_t serve_start = hostNowNs();
    if (spec.kind == WorkloadKind::Serve) {
        ServeStats s;
        {
            ScopedSpan span(spans, "serve", rep_span.index(), rep_id);
            s = runServe(*m.runner, serveConfig(spec, seed));
        }
        r.serveNs = hostNowNs() - serve_start;
        report = serveReport(s);
        r.submitted = spec.warmup + spec.queries;
        r.measured = spec.queries;
        r.completed = s.completedQueries;
        r.degraded = s.degradedQueries;
        r.batches = s.batchesDispatched;
        r.simP50Us = s.p50Us;
        r.simP95Us = s.p95Us;
        r.simQps = s.achievedQps;
        r.simSamples = s.completedQueries;
        double p95 = 0.0;
        for (const auto &d : s.perDevice)
            p95 = std::max(p95, d.subOpP95Us);
        r.subOpP95Us = p95;
        r.scatteredOps = s.scatteredOps;
        r.hostServedFrac = s.hostServedFraction;
        r.avgCoalescedSamples = s.avgCoalescedSamples;
        r.queueUsMean = s.meanQueueUs;
        r.serviceUsMean = s.meanServiceUs;
    } else {
        TenantServeConfig tcfg = tenantConfig(spec, seed);
        TenantServeStats s;
        {
            ScopedSpan span(spans, "serve", rep_span.index(), rep_id);
            s = runServeTenants(sys, runnerOptions(spec, seed), tcfg);
        }
        r.serveNs = hostNowNs() - serve_start;
        report = tenantReport(s);
        for (const TenantSpec &t : tcfg.tenants.tenants) {
            unsigned q = t.queries ? t.queries : tcfg.defaultQueries;
            r.measured += q;
            r.submitted += q + tcfg.warmupQueries;
        }
        r.completed = s.completedQueries;
        const auto &victim = s.perTenant.front();
        r.simP50Us = victim.p50Us;
        r.simP95Us = victim.p95Us;
        r.simSamples = victim.completedQueries;
        r.simQps = s.achievedQps;
        r.batches = s.batchesDispatched;
        std::uint64_t applied = 0;
        double queue = 0.0;
        double service = 0.0;
        for (const auto &t : s.perTenant) {
            r.degraded += t.degradedQueries;
            applied += t.updatesApplied;
            r.limitDeferrals += t.qos.limitDeferrals;
            r.reservationGrants += t.qos.reservationGrants;
            r.updateAdmissionDeferrals += t.updateAdmissionDeferrals;
            queue += t.meanQueueUs * t.completedQueries;
            service += t.meanServiceUs * t.completedQueries;
        }
        if (s.completedQueries > 0) {
            r.queueUsMean = queue / s.completedQueries;
            r.serviceUsMean = service / s.completedQueries;
        }
        // Same clock as the mix's achievedQps (bench ext_update_interference).
        double wall_s = s.achievedQps > 0.0
                            ? s.completedQueries / s.achievedQps
                            : 0.0;
        r.simUpdatesPerS = wall_s > 0.0 ? applied / wall_s : 0.0;
        r.updatesApplied = applied;
    }
    r.events = sys.eq().executed() - events_before;
    r.stats = statSnapshot(sys);
    for (const auto &[name, value] : r.stats) {
        if (name.size() > 17 &&
            name.compare(name.size() - 17, 17, ".depth.high_water") == 0 &&
            name.find("driver.queue") != std::string::npos)
            r.queueDepthHighWater = std::max(r.queueDepthHighWater, value);
    }
    for (auto &[name, value] : r.stats) {
        auto it = stats_before.find(name);
        value -= it == stats_before.end() ? 0.0 : it->second;
    }
    const Tick served = sys.eq().now() - now_before;
    if (served > 0) {
        r.flashChannelBusyFrac =
            (channelBusy(sys) - busy_before) /
            (static_cast<double>(served) * channelCount(sys));
    }
    r.fenceRedirects = fenceRedirects(sys) - redirects_before;

    std::ostringstream digest_text;
    sys.dumpStatsJson(digest_text);
    digest_text << report;
    r.digest = fnv1a(digest_text.str());
    if (oracle)
        checkServed(spec, seed, m, oracleOps, r.updatesApplied, *oracle);

    if (obs)
        exportObservability(sys, artifact_dir, r, spans, rep_span.index());
    return r;
}

std::int64_t
setupOnlyNs(const WorkloadSpec &spec, std::uint64_t seed)
{
    std::int64_t t0 = hostNowNs();
    Machine m = buildMachine(spec, seed);
    return hostNowNs() - t0;
}

}  // namespace hostbench
