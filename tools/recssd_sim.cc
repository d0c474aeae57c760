/**
 * @file
 * recssd_sim — command-line frontend to the simulator.
 *
 * Runs one end-to-end configuration and prints latency stats (plus
 * every device counter with `--stats-json -`), without writing any C++:
 *
 *   recssd_sim --model RM1 --backend ndp --trace k --k 1 --batch 16
 *   recssd_sim --model RM2 --backend base --host-cache --batches 8
 *   recssd_sim --serve --qps 40 --arrival bursty --io-queues 4
 *   recssd_sim --list-models
 *
 * Every flag is one `kFlags` entry below, which drives both parsing
 * and the usage text and says what the flag does; its default is the
 * `Options` member it sets. A count is decimal digits only and a real
 * is a fully consumed finite number (src/common/parse_time.h); a bad
 * or empty value, a value outside the entry's bounds, a choice flag's
 * unknown word, a missing value or an unknown flag prints the usage
 * text and exits 2. Flags that combine are checked once, before the
 * simulated machine is built, and every output file is opened then
 * too, so an unwritable path exits 1 before the run instead of after
 * it. See README ("Fault model", "Observability", "Write path",
 * "Multi-tenant QoS") for the subsystems behind each group.
 */

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>

#include "src/common/parse_time.h"
#include "src/core/experiment.h"
#include "src/fault/fault_plan.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/utilization.h"
#include "src/qos/tenant_serve.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"

using namespace recssd;

namespace
{

/** Every option, at its default. */
struct Options
{
    std::string model = "RM1";
    std::string backend = "ndp";
    std::string trace = "uniform";
    double k = 1.0;
    unsigned batch = 16;
    unsigned batches = 4;
    unsigned warmup = 2;
    bool host_cache = false;
    bool partition = false;
    std::uint64_t ssd_cache_mb = 0;
    bool no_pipeline = false;
    bool all_ssd = false;
    unsigned num_ssds = 1;
    std::string shard_policy = "hash";
    std::string layout_policy = "log";
    unsigned hot_tier_pages = 1024;
    std::uint64_t seed = 42;
    bool list_models = false;
    bool serve = false;
    double qps = 50.0;
    std::string arrival = "poisson";
    double burst = 4.0;
    unsigned queries = 100;
    unsigned max_batch = 0;  // 0 = 4x batch
    unsigned max_wait_us = 500;
    unsigned max_inflight = 4;
    unsigned io_queues = 4;
    std::string fault_plan;
    unsigned replication = 1;
    std::string hedge_delay;
    unsigned deadline_us = 0;
    std::string trace_out;
    std::string blame_out;
    std::string util_out;
    unsigned util_bucket_us = 1000;
    std::string metrics_out;
    unsigned metrics_interval_us = 50;
    std::string stats_json;
    unsigned slo_target_us = 0;
    double slo_goal = 0.99;
    unsigned slo_window_us = 10000;
    double update_rate = 0.0;
    double update_skew = 0.0;
    double rw_ratio = 0.0;
    std::string tenants;
    std::string qos_policy = "dmclock";
    unsigned qos_window = 8;
};

/** Usage lines, in print order. */
enum Line { Common, Serve, Fault, Obs, Slo, Update, Qos, NumLines };

/** `--serve` is named by the serve line's head, not listed on it. */
constexpr Line InHead = NumLines;

/** The option a flag sets; its type is the flag's kind. */
using Target =
    std::variant<bool Options::*, unsigned Options::*,
                 std::uint64_t Options::*, double Options::*,
                 std::string Options::*>;

/** A string flag whose value must be one of its metavar's words. */
constexpr bool kChoice = true;

struct Flag
{
    const char *name;
    const char *metavar;  ///< usage placeholder; null for a switch
    Line line;            ///< usage line the flag is printed on
    Target target;
    double min = 0.0;     ///< bounds of a count or real value
    double max = DBL_MAX;
    bool choice = false;  ///< value is one of metavar's '|' words
};

const Flag kFlags[] = {
    // Batch mode (and the model/device setup serve mode shares).
    {"--model", "NAME", Common, &Options::model},  // from the zoo
    {"--backend", "dram|base|ndp", Common, &Options::backend, 0, 0, kChoice},
    {"--trace", "uniform|k|seq|str|zipf", Common, &Options::trace, 0, 0,
     kChoice},
    {"--k", "V", Common, &Options::k},  // locality K for --trace k
    // Samples per batch, at most 64x the largest batch the paper's
    // figures sweep (256): an RM2 batch then holds ~6.3e7 lookups
    // (~1.2 GB), and 4x batch, the default --max-batch, stays far
    // inside an unsigned.
    {"--batch", "N", Common, &Options::batch, 1, 16384},
    {"--batches", "N", Common, &Options::batches, 1},  // measured
    {"--warmup", "N", Common, &Options::warmup},  // unmeasured batches
    {"--host-cache", nullptr, Common, &Options::host_cache},  // base: LRU
    {"--partition", nullptr, Common, &Options::partition},  // ndp: static
    // ndp: SSD-side embedding cache; bounded so MB -> bytes cannot
    // overflow.
    {"--ssd-cache", "MB", Common, &Options::ssd_cache_mb, 0,
     static_cast<double>(UINT64_MAX >> 20)},
    {"--no-pipeline", nullptr, Common, &Options::no_pipeline},  // sub-batch
    {"--all-ssd", nullptr, Common, &Options::all_ssd},  // every table
    // Independent SSD devices to shard across (1 = the prototype), by
    // table hash or row range.
    {"--num-ssds", "N", Common, &Options::num_ssds, 1},
    {"--shard-policy", "hash|range", Common, &Options::shard_policy, 0, 0,
     kChoice},
    // freq: the frequency-aware hot-row layout with a DRAM hot tier of
    // --hot-tier-pages pages.
    {"--layout-policy", "log|freq", Common, &Options::layout_policy, 0, 0,
     kChoice},
    {"--hot-tier-pages", "N", Common, &Options::hot_tier_pages},
    {"--seed", "N", Common, &Options::seed},  // RNG seed
    {"--list-models", nullptr, Common, &Options::list_models},  // and exit

    // Serving mode: open-loop load + batch scheduler + tail latency.
    {"--serve", nullptr, InHead, &Options::serve},
    // Mean arrival rate, bounded below so arrival gaps stay far inside
    // a Tick.
    {"--qps", "R", Serve, &Options::qps, minQps},
    {"--arrival", "poisson|fixed|bursty", Serve, &Options::arrival, 0, 0,
     kChoice},
    {"--burst", "B", Serve, &Options::burst, 1.0},  // bursty factor
    // Measured queries; with the max(1, N/10) warmup queries added,
    // the largest N whose total still fits an unsigned.
    {"--queries", "N", Serve, &Options::queries, 0, 3904515723},
    {"--max-batch", "N", Serve, &Options::max_batch},  // fused samples
    {"--max-wait-us", "N", Serve, &Options::max_wait_us},  // timeout
    {"--max-inflight", "N", Serve, &Options::max_inflight, 1},
    {"--io-queues", "N", Serve, &Options::io_queues, 1},  // queue pairs

    // Faults and tail tolerance. --fault-plan takes a plan file or an
    // inline spec like "stall@1:at=2ms,dur=2ms;dropout@3:at=50ms".
    // --hedge-delay-us hedges sub-ops after N us, or "auto" tracks the
    // observed p95; late ops past --deadline-us deliver degraded.
    {"--fault-plan", "FILE|SPEC", Fault, &Options::fault_plan},
    {"--replication", "R", Fault, &Options::replication, 1},
    {"--hedge-delay-us", "N|auto", Fault, &Options::hedge_delay},
    {"--deadline-us", "N", Fault, &Options::deadline_us},

    // Observability. --trace-out writes a Chrome trace (Perfetto) and
    // prints the phase table; --blame-out writes and prints the
    // critical-path blame report; --util-out writes per-resource
    // utilization timelines; --metrics-out samples the stat registry
    // (JSONL, CSV when FILE ends .csv); --stats-json dumps the final
    // counters ("-" = stdout).
    {"--trace-out", "FILE", Obs, &Options::trace_out},
    {"--blame-out", "FILE", Obs, &Options::blame_out},
    {"--util-out", "FILE", Obs, &Options::util_out},
    {"--util-bucket-us", "N", Obs, &Options::util_bucket_us, 1},
    {"--metrics-out", "FILE", Obs, &Options::metrics_out},
    {"--metrics-interval-us", "N", Obs, &Options::metrics_interval_us, 1},
    {"--stats-json", "FILE|-", Obs, &Options::stats_json},

    // SLO monitor: attainment against an N-us target per tumbling
    // window; goal in (0,1), burn rate 1.0 = budget spent as planned.
    {"--slo-target-us", "N", Slo, &Options::slo_target_us},
    {"--slo-goal", "F", Slo, &Options::slo_goal, 0.0, 1.0},
    {"--slo-window-us", "N", Slo, &Options::slo_window_us},

    // Online embedding updates: R row updates/s at the SSD tables
    // (0 = read-only, else in [1e-6, 1e9]) with zipf skew A; or
    // --rw-ratio picks R so reads are fraction F of all row ops.
    {"--update-rate", "R", Update, &Options::update_rate},
    {"--update-skew", "A", Update, &Options::update_skew},
    {"--rw-ratio", "F", Update, &Options::rw_ratio, 0.0, 1.0},

    // Multi-tenant QoS: a tenant file or inline spec (grammar in
    // src/qos/tenant_spec.h) replaces the anonymous stream; admission
    // by dmclock or the fifo baseline, through a window of queries
    // admitted but not yet completed.
    {"--tenants", "FILE|SPEC", Qos, &Options::tenants},
    {"--qos-policy", "dmclock|fifo", Qos, &Options::qos_policy, 0, 0,
     kChoice},
    {"--qos-window", "N", Qos, &Options::qos_window, 1},
};

[[noreturn]] void
usage(const char *argv0)
{
    const std::string prog = argv0;
    const std::string heads[NumLines] = {
        "usage: " + prog,
        "       " + prog + " --serve",
        "fault/tail-tolerance flags (both modes):",
        "observability flags (both modes):",
        "SLO flags (serve mode):",
        "update flags (serve mode):",
        "QoS flags (serve mode):",
    };
    for (int line = 0; line < NumLines; ++line) {
        std::fputs(heads[line].c_str(), stderr);
        for (const Flag &f : kFlags) {
            if (f.line == line)
                std::fprintf(stderr, " [%s%s%s]", f.name,
                             f.metavar ? " " : "", f.metavar ? f.metavar : "");
        }
        std::fputs(line == Serve ? " [common flags]\n" : "\n", stderr);
    }
    std::exit(2);
}

/**
 * Store `text` (null for a switch) in the option `flag` sets. False
 * when it is not a legal value for the flag.
 */
bool
assign(Options &o, const Flag &flag, const char *text)
{
    return std::visit(
        [&](auto member) {
            auto &field = o.*member;
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>) {
                field = true;
                return true;
            } else if constexpr (std::is_same_v<T, std::string>) {
                field = text;
                if (!flag.choice)
                    return !field.empty();
                // One of the metavar's '|'-separated words.
                return field.find('|') == std::string::npos &&
                       ("|" + std::string(flag.metavar) + "|")
                               .find("|" + field + "|") != std::string::npos;
            } else if constexpr (std::is_same_v<T, double>) {
                return parseReal(text, flag.min, flag.max, field) ==
                       NumberError::Ok;
            } else {
                std::uint64_t v = 0;
                NumberError e =
                    parseCount(text, std::numeric_limits<T>::max(), v);
                field = static_cast<T>(v);
                return e == NumberError::Ok &&
                       static_cast<double>(v) >= flag.min &&
                       static_cast<double>(v) <= flag.max;
            }
        },
        flag.target);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag &f) { return !std::strcmp(argv[i], f.name); });
        if (flag == std::end(kFlags) || (flag->metavar && i + 1 >= argc) ||
            !assign(o, *flag, flag->metavar ? argv[++i] : nullptr))
            usage(argv[0]);
    }
    return o;
}

/** Open `path` for writing now (nothing when empty), or exit 1. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os;
    if (path.empty())
        return os;
    os.open(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

void
listModels()
{
    TablePrinter table("Model zoo",
                       {"model", "class", "tables", "lookups/sample",
                        "mlp-macs/sample"});
    for (const auto &m : modelZoo()) {
        table.row({m.name, m.embeddingDominated ? "embedding" : "mlp",
                   std::to_string(m.numTables()),
                   std::to_string(m.lookupsPerSample()),
                   std::to_string(m.mlpMacsPerSample())});
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    if (o.list_models) {
        listModels();
        return 0;
    }

    // Rules that span flags. Updates and tenant mixes ride the serve
    // harness, and a mix owns its update streams (per-tenant
    // update_rate / update_skew in the spec).
    if (!o.serve && (o.update_rate > 0.0 || o.update_skew > 0.0 ||
                     o.rw_ratio > 0.0 || !o.tenants.empty()))
        usage(argv[0]);
    if (!o.tenants.empty() && (o.update_rate > 0.0 || o.rw_ratio > 0.0))
        usage(argv[0]);
    if (o.rw_ratio > 0.0 && o.update_rate <= 0.0) {
        // Row reads arrive at qps x batch x lookups/sample; pick the
        // update rate that makes reads fraction F of all row
        // operations (reads + updates). F = 1 keeps it read-only.
        double reads_per_sec =
            o.qps * o.batch * modelByName(o.model).lookupsPerSample();
        o.update_rate = reads_per_sec * (1.0 - o.rw_ratio) / o.rw_ratio;
    }
    // A nonzero update rate needs a mean gap a Tick can represent.
    if (o.update_rate != 0.0 &&
        !(o.update_rate >= minUpdateRate && o.update_rate <= maxUpdateRate))
        usage(argv[0]);
    if (o.slo_target_us > 0 &&
        (o.slo_window_us == 0 || o.slo_goal <= 0.0 || o.slo_goal >= 1.0))
        usage(argv[0]);
    RunnerOptions opt;
    if (o.hedge_delay == "auto") {
        opt.resil.hedge.mode = HedgeMode::Auto;
    } else if (!o.hedge_delay.empty()) {
        std::uint64_t us = 0;
        if (parseCount(o.hedge_delay, UINT_MAX, us) != NumberError::Ok ||
            us == 0)
            usage(argv[0]);
        opt.resil.hedge.mode = HedgeMode::Fixed;
        opt.resil.hedge.fixedDelay = Tick(us) * usec;
    }

    std::ofstream trace_os = openOutput(o.trace_out);
    std::ofstream blame_os = openOutput(o.blame_out);
    std::ofstream util_os = openOutput(o.util_out);
    std::ofstream metrics_os = openOutput(o.metrics_out);
    std::ofstream stats_os = openOutput(o.stats_json == "-" ? ""
                                                            : o.stats_json);

    SystemConfig cfg;
    cfg.ssd.sls.embeddingCacheBytes = o.ssd_cache_mb * 1024 * 1024;
    cfg.shard.numShards = o.num_ssds;
    if (o.shard_policy == "range")
        cfg.shard.policy = ShardPolicy::RowRange;
    if (o.layout_policy == "freq") {
        cfg.ssd.ftl.layout.policy = LayoutPolicy::Freq;
        cfg.ssd.ftl.layout.hotTierPages = o.hot_tier_pages;
    }
    if (o.serve) {
        cfg.host.ioQueues = o.io_queues;
        cfg.ssd.nvme.numQueues = o.io_queues;
        cfg.host.balancedQueueGrants = true;
    }
    cfg.shard.replication = o.replication;
    if (!o.fault_plan.empty())
        applyFaultPlan(cfg, FaultPlan::load(o.fault_plan));
    System sys(cfg);

    if (o.backend == "dram")
        opt.backend = EmbeddingBackendKind::Dram;
    else if (o.backend == "base")
        opt.backend = EmbeddingBackendKind::BaselineSsd;
    else
        opt.backend = EmbeddingBackendKind::Ndp;
    if (o.trace == "k")
        opt.trace.kind = TraceKind::LocalityK;
    else if (o.trace == "seq")
        opt.trace.kind = TraceKind::Sequential;
    else if (o.trace == "str")
        opt.trace.kind = TraceKind::Strided;
    else if (o.trace == "zipf")
        opt.trace.kind = TraceKind::Zipf;
    opt.trace.k = o.k;  // read by the k trace only
    opt.hostLruCache = o.host_cache;
    opt.staticPartition = o.partition;
    opt.pipeline = !o.no_pipeline;
    opt.forceAllTablesOnSsd = o.all_ssd;
    opt.seed = o.seed;
    opt.resil.deadline = Tick(o.deadline_us) * usec;

    const ModelConfig &model = modelByName(o.model);
    // Tenant mixes build their own per-model runners inside
    // runServeTenants; constructing the default runner too would
    // install a second, unused copy of its tables on the machine.
    std::unique_ptr<ModelRunner> runner;
    if (o.tenants.empty())
        runner = std::make_unique<ModelRunner>(sys, model, opt);

    if (!o.trace_out.empty() || !o.blame_out.empty())
        sys.enableTracing();
    if (!o.util_out.empty())
        sys.enableUtilization(Tick(o.util_bucket_us) * usec);
    if (!o.metrics_out.empty())
        sys.startMetricSampler(Tick(o.metrics_interval_us) * usec);

    // Both serve paths share the batch former and the SLO monitor; a
    // tenant mix retargets the monitor at each tenant's own SLO.
    BatchPolicy batching;
    batching.maxBatchSamples = o.max_batch ? o.max_batch : 4 * o.batch;
    batching.maxWait = Tick(o.max_wait_us) * usec;
    batching.maxInFlight = o.max_inflight;
    SloConfig slo;
    if (o.slo_target_us > 0) {
        slo.enabled = true;
        slo.target = Tick(o.slo_target_us) * usec;
        slo.objective = o.slo_goal;
        slo.window = Tick(o.slo_window_us) * usec;
    }

    if (!o.tenants.empty()) {
        TenantServeConfig tcfg;
        tcfg.tenants = TenantSet::load(o.tenants);
        tcfg.qos.policy = o.qos_policy == "fifo" ? QosPolicy::Fifo
                                                 : QosPolicy::Dmclock;
        tcfg.qos.window = o.qos_window;
        tcfg.batching = batching;
        tcfg.defaultQueries = o.queries;
        tcfg.warmupQueries = std::max(1u, o.queries / 10);
        tcfg.seed = o.seed;
        tcfg.slo = slo;

        std::printf("serving %zu tenants, backend %s, qos %s "
                    "(window %u), coalesce cap %u, %u queue pairs, "
                    "%u SSD(s) [%s]\n",
                    tcfg.tenants.size(), o.backend.c_str(),
                    qosPolicyName(tcfg.qos.policy), tcfg.qos.window,
                    tcfg.batching.maxBatchSamples, o.io_queues,
                    sys.numSsds(), shardPolicyName(cfg.shard.policy));
        auto ts = runServeTenants(sys, opt, tcfg);
        for (const auto &pt : ts.perTenant) {
            std::printf("tenant %s [%s]: p50 %.1fus  p95 %.1fus  "
                        "p99 %.1fus  mean %.1fus  max %.1fus  "
                        "attainment %.4f  qps %.1f\n",
                        pt.name.c_str(), pt.model.c_str(), pt.p50Us,
                        pt.p95Us, pt.p99Us, pt.meanLatencyUs,
                        pt.maxLatencyUs, pt.sloAttainment,
                        pt.achievedQps);
            std::printf("tenant %s qos: %llu admitted (%llu reservation "
                        "/ %llu weight), %llu limit deferrals, queue "
                        "depth max %u, queueing %.1fus mean\n",
                        pt.name.c_str(),
                        static_cast<unsigned long long>(pt.qos.admitted),
                        static_cast<unsigned long long>(
                            pt.qos.reservationGrants),
                        static_cast<unsigned long long>(
                            pt.qos.weightGrants),
                        static_cast<unsigned long long>(
                            pt.qos.limitDeferrals),
                        pt.qos.maxQueueDepth, pt.meanQueueUs);
            if (pt.updatesSubmitted > 0) {
                std::printf("tenant %s updates: %llu applied / %llu "
                            "submitted in %llu flushes, %llu deferred "
                            "by qos budget\n",
                            pt.name.c_str(),
                            static_cast<unsigned long long>(
                                pt.updatesApplied),
                            static_cast<unsigned long long>(
                                pt.updatesSubmitted),
                            static_cast<unsigned long long>(
                                pt.updateFlushes),
                            static_cast<unsigned long long>(
                                pt.updateAdmissionDeferrals));
            }
            if (tcfg.slo.enabled) {
                std::printf("tenant %s slo: %u windows, attainment "
                            "%.4f vs goal %.2f, burn rate %.2f (worst "
                            "window %.2f)\n",
                            pt.name.c_str(),
                            static_cast<unsigned>(pt.sloWindows.size()),
                            pt.sloMonitorAttainment, o.slo_goal,
                            pt.errorBudgetBurnRate,
                            pt.worstWindowBurnRate);
            }
        }
        std::printf("mix: %u queries, %.1f qps sustained, %llu fused "
                    "batches, %llu admissions\n",
                    ts.completedQueries, ts.achievedQps,
                    static_cast<unsigned long long>(ts.batchesDispatched),
                    static_cast<unsigned long long>(ts.totalAdmitted));
    } else if (o.serve) {
        ServeConfig scfg;
        if (o.arrival == "fixed")
            scfg.arrivals.process = ArrivalProcess::Fixed;
        else if (o.arrival == "bursty")
            scfg.arrivals.process = ArrivalProcess::Bursty;
        scfg.arrivals.qps = o.qps;
        scfg.arrivals.burstiness = o.burst;
        scfg.shape.minBatch = o.batch;
        scfg.shape.maxBatch = o.batch;
        scfg.batching = batching;
        scfg.queries = o.queries;
        scfg.warmupQueries = std::max(1u, o.queries / 10);
        scfg.seed = o.seed;
        scfg.slo = slo;
        scfg.updates.rate = o.update_rate;
        scfg.updates.skew = o.update_skew;

        std::printf("serving %s, backend %s, %s arrivals @ %.1f qps, "
                    "batch %u, coalesce cap %u, %u queue pairs, "
                    "%u SSD(s) [%s]\n",
                    model.name.c_str(), o.backend.c_str(), o.arrival.c_str(),
                    o.qps, o.batch, scfg.batching.maxBatchSamples, o.io_queues,
                    sys.numSsds(), shardPolicyName(cfg.shard.policy));
        if (scfg.updates.enabled())
            std::printf("update stream: %.1f rows/s, zipf skew %.2f\n",
                        scfg.updates.rate, scfg.updates.skew);
        auto s = runServe(*runner, scfg);
        std::printf("latency: p50 %.1fus  p95 %.1fus  p99 %.1fus  "
                    "p999 %.1fus  mean %.1fus  max %.1fus\n",
                    s.p50Us, s.p95Us, s.p99Us, s.p999Us, s.meanLatencyUs,
                    s.maxLatencyUs);
        std::printf("breakdown: queueing %.1fus  service %.1fus\n",
                    s.meanQueueUs, s.meanServiceUs);
        std::printf("throughput: %.1f qps sustained, %llu fused batches "
                    "(%.1f samples avg), scheduler depth max %u\n",
                    s.achievedQps,
                    static_cast<unsigned long long>(s.batchesDispatched),
                    s.avgCoalescedSamples, s.maxSchedulerDepth);
        std::printf("split: %.1f%% of lookups served host-side\n",
                    s.hostServedFraction * 100);
        if (scfg.updates.enabled()) {
            const auto &u = s.update;
            std::printf(
                "updates: %llu applied / %llu submitted in %llu flushes "
                "(flush mean %.1fus p99 %.1fus), %llu page writes incl. "
                "replicas, %llu skipped (dead device)\n",
                static_cast<unsigned long long>(u.applied),
                static_cast<unsigned long long>(u.submitted),
                static_cast<unsigned long long>(u.flushes), u.meanFlushUs,
                u.p99FlushUs,
                static_cast<unsigned long long>(u.replicaWrites),
                static_cast<unsigned long long>(u.skippedDeadDevice));
            std::printf(
                "write path: %llu host page writes -> %llu flash programs "
                "(WA %.2f), %llu GC runs (%llu pages migrated, %llu "
                "erases), %llu fence redirects\n",
                static_cast<unsigned long long>(u.hostPageWrites),
                static_cast<unsigned long long>(u.flashPageWrites),
                u.writeAmplification,
                static_cast<unsigned long long>(u.gcRuns),
                static_cast<unsigned long long>(u.gcPagesMigrated),
                static_cast<unsigned long long>(u.blockErases),
                static_cast<unsigned long long>(u.fenceRedirects));
        }
        if (scfg.slo.enabled) {
            std::printf("slo: %u windows, attainment %.4f vs goal %.2f, "
                        "burn rate %.2f (worst window %.2f)\n",
                        static_cast<unsigned>(s.sloWindows.size()),
                        s.sloMonitorAttainment, o.slo_goal,
                        s.errorBudgetBurnRate, s.worstWindowBurnRate);
        }
        if (sys.numSsds() == 1) {
            for (std::size_t q = 0; q < s.commandsPerQueue.size(); ++q) {
                std::printf("queue %zu: %llu commands, max depth %u\n", q,
                            static_cast<unsigned long long>(
                                s.commandsPerQueue[q]),
                            s.maxDepthPerQueue[q]);
            }
        } else {
            for (std::size_t d = 0; d < s.perDevice.size(); ++d) {
                const auto &ds = s.perDevice[d];
                std::uint64_t cmds = 0;
                for (std::uint64_t c : ds.commandsPerQueue)
                    cmds += c;
                std::printf("ssd%zu: %llu commands, %llu sub-ops, "
                            "sub-op p50 %.1fus p95 %.1fus p99 %.1fus "
                            "p999 %.1fus max %.1fus, %llu late\n",
                            d, static_cast<unsigned long long>(cmds),
                            static_cast<unsigned long long>(ds.subOps),
                            ds.subOpP50Us, ds.subOpP95Us, ds.subOpP99Us,
                            ds.subOpP999Us, ds.subOpMaxUs,
                            static_cast<unsigned long long>(
                                ds.lateCompletions));
            }
            std::printf("scatter: %llu ops fanned out to >1 device\n",
                        static_cast<unsigned long long>(s.scatteredOps));
        }
        if (opt.resil.active() || sys.router().replication() > 1 ||
            s.degradedQueries > 0) {
            std::printf("resilience: %u degraded queries, %llu deadline "
                        "misses, %llu hedges fired (%llu won), %llu "
                        "duplicate completions, %llu failovers\n",
                        s.degradedQueries,
                        static_cast<unsigned long long>(s.deadlineMisses),
                        static_cast<unsigned long long>(s.hedgesFired),
                        static_cast<unsigned long long>(s.hedgeWins),
                        static_cast<unsigned long long>(
                            s.duplicateCompletions),
                        static_cast<unsigned long long>(s.failovers));
            if (!s.ejectedDevices.empty()) {
                std::printf("ejected devices:");
                for (unsigned d : s.ejectedDevices)
                    std::printf(" ssd%u", d);
                std::printf("\n");
            }
        }
    } else {
        std::printf("model %s, backend %s, trace %s, batch %u, %u+%u "
                    "batches, %u/%u tables on SSD\n",
                    model.name.c_str(), o.backend.c_str(),
                    o.trace.c_str(), o.batch, o.warmup, o.batches,
                    runner->ssdTables(), model.numTables());

        auto stats = runner->measure(o.batch, o.warmup, o.batches);
        std::printf("latency: avg %.1fus  min %.1fus  max %.1fus\n",
                    stats.avgLatencyUs, stats.minLatencyUs,
                    stats.maxLatencyUs);
        if (o.host_cache)
            std::printf("host LRU hit rate: %.1f%%\n",
                        stats.hostCacheHitRate * 100);
        if (o.partition)
            std::printf("partition hit rate: %.1f%%\n",
                        stats.partitionHitRate * 100);
        if (o.ssd_cache_mb)
            std::printf("SSD embed cache hit rate: %.1f%%\n",
                        stats.ssdEmbedCacheHitRate * 100);
        if (o.layout_policy == "freq") {
            std::printf("SSD page cache hit rate: %.1f%%\n",
                        stats.ssdPageCacheHitRate * 100);
            std::printf("hot tier hit rate: %.1f%%\n",
                        stats.hotTierHitRate * 100);
        }
        std::printf(
            "flash page reads: %llu\n",
            static_cast<unsigned long long>(stats.flashPageReads));
    }

    // Export the recorded observability artifacts.
    if (!o.trace_out.empty()) {
        sys.tracer().writeChromeTrace(trace_os);
        std::printf("trace: %zu spans on %zu tracks -> %s "
                    "(load in Perfetto / chrome://tracing)\n",
                    sys.tracer().spans().size(),
                    sys.tracer().tracks().size(), o.trace_out.c_str());
        AttributionReport report = attribute(sys.tracer());
        report.print(std::cout);
    }
    if (!o.blame_out.empty()) {
        BlameReport blame = computeBlame(sys.tracer());
        blame.writeJson(blame_os);
        blame.print(std::cout);
        std::printf("blame: %u requests (%u tail) -> %s\n",
                    blame.requests, blame.tailRequests,
                    o.blame_out.c_str());
    }
    if (!o.util_out.empty()) {
        UtilizationCollector &util = *sys.utilization();
        util.writeJson(util_os, sys.eq().now());
        std::printf("utilization: %zu resources -> %s\n",
                    util.resources().size(), o.util_out.c_str());
    }
    if (!o.metrics_out.empty()) {
        // System::run() already closed the series (final partial
        // interval included), so no extra snapshot here.
        MetricSampler &sampler = *sys.metricSampler();
        const std::string &path = o.metrics_out;
        if (path.size() > 4 && path.rfind(".csv") == path.size() - 4)
            sampler.writeCsv(metrics_os);
        else
            sampler.writeJsonl(metrics_os);
        std::printf("metrics: %zu samples x %zu series -> %s\n",
                    sampler.rows().size(), sys.stats().size(),
                    path.c_str());
    }
    if (o.stats_json == "-")
        sys.dumpStatsJson(std::cout);
    else if (!o.stats_json.empty())
        sys.dumpStatsJson(stats_os);
    return 0;
}
