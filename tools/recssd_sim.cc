/**
 * @file
 * recssd_sim — command-line frontend to the simulator.
 *
 * Runs one end-to-end configuration and prints latency stats plus the
 * full device counters, without writing any C++:
 *
 *   recssd_sim --model RM1 --backend ndp --trace k --k 1 --batch 16
 *   recssd_sim --model RM2 --backend base --host-cache --batches 8
 *   recssd_sim --list-models
 *
 * Flags:
 *   --model NAME        model from the zoo (default RM1)
 *   --backend KIND      dram | base | ndp (default ndp)
 *   --trace KIND        uniform | k | seq | str | zipf (default uniform)
 *   --k VALUE           locality K for --trace k (default 1.0)
 *   --batch N           batch size (default 16)
 *   --batches N         measured batches (default 4)
 *   --warmup N          warmup batches (default 2)
 *   --host-cache        baseline: enable the host LRU cache
 *   --partition         ndp: enable static partitioning
 *   --ssd-cache MB      ndp: SSD-side embedding cache size (default 0)
 *   --no-pipeline       disable sub-batch pipelining
 *   --all-ssd           place every table on the SSD
 *   --num-ssds N        independent SSD devices to shard across
 *                       (default 1 = the single-device prototype)
 *   --shard-policy P    hash | range table partitioning (default hash)
 *   --layout-policy P   log | freq data placement (default log; freq
 *                       enables the frequency-aware hot-row layout)
 *   --hot-tier-pages N  freq: hot-row DRAM tier capacity in pages
 *                       (default 1024)
 *   --seed N            RNG seed (default 42)
 *   --stats             dump device counters after the run
 *   --list-models       print the zoo and exit
 *
 * Serving mode (open-loop load + batch scheduler + tail latency):
 *   --serve             run the batched serving harness instead
 *   --qps R             mean arrival rate (default 50)
 *   --arrival KIND      poisson | fixed | bursty (default poisson)
 *   --burst B           bursty: burst factor (default 4)
 *   --queries N         measured queries (default 100)
 *   --max-batch N       fused-batch sample cap (default 4x batch)
 *   --max-wait-us N     batching timeout in us (default 500)
 *   --max-inflight N    concurrent fused batches (default 4)
 *   --io-queues N       NVMe queue pairs to bind (default 4)
 *
 * Faults & tail tolerance (see README "Fault model"):
 *   --fault-plan SPEC   inject device faults; SPEC is a plan file or
 *                       an inline spec like
 *                       "stall@1:at=2ms,dur=2ms;dropout@3:at=50ms"
 *   --replication R     R-way table replication across shards
 *   --hedge-delay-us V  hedge sub-ops after V us, or "auto" to track
 *                       the observed latency quantile (p95)
 *   --deadline-us N     per-op deadline; late ops deliver degraded
 *
 * Observability (see README "Observability"):
 *   --trace-out FILE        record spans; write Chrome trace-event
 *                           JSON (open in Perfetto) and print the
 *                           per-phase latency-attribution table
 *   --blame-out FILE        record spans (tracing auto-enabled) and
 *                           write the critical-path blame report as
 *                           JSON, plus print the blame table
 *   --util-out FILE         record per-resource utilization / queue
 *                           timelines and write them as JSON
 *   --util-bucket-us N      utilization timeline bucket (default 1000)
 *   --metrics-out FILE      sample the stat registry over sim time;
 *                           JSONL by default, CSV when FILE ends .csv
 *   --metrics-interval-us N sampling period (default 50)
 *   --stats-json FILE       dump final device counters as JSON
 *                           ("-" = stdout)
 *
 * SLO monitor (serve mode; see README "Observability"):
 *   --slo-target-us N       enable windowed SLO monitoring against an
 *                           N-microsecond latency target
 *   --slo-goal F            attainment objective in (0,1) (default
 *                           0.99); burn rate 1.0 = budget spent
 *                           exactly as provisioned
 *   --slo-window-us N       tumbling window width (default 10000)
 *
 * Online embedding updates (serve mode; see README "Write path"):
 *   --update-rate R     mixed read-write serving: stream R row
 *                       updates per second at the SSD-resident
 *                       tables, R in [1e-6, 1e9] (default 0 =
 *                       read-only)
 *   --update-skew A     zipf skew of updated rows (default 0 =
 *                       uniform); hot rows collide with hot reads
 *   --rw-ratio F        alternative to --update-rate: pick the
 *                       update rate so reads are fraction F of all
 *                       row operations (lookups + updates), F in
 *                       (0,1]; the derived rate must lie in
 *                       [1e-6, 1e9]
 *
 * Multi-tenant QoS (serve mode; see README "Multi-tenant QoS"):
 *   --tenants SPEC      serve a tenant mix instead of one anonymous
 *                       stream; SPEC is a tenant file or an inline
 *                       spec (src/qos/tenant_spec.h grammar). Each
 *                       tenant names its model, arrival process, SLO
 *                       and reservation/weight/limit share; per-tenant
 *                       latency, attainment and QoS counters are
 *                       reported (and exported as
 *                       serve.tenant.<name>.* registry stats)
 *   --qos-policy P      dmclock | fifo admission policy (default
 *                       dmclock; fifo is the no-isolation baseline)
 *   --qos-window N      admission window: queries admitted downstream
 *                       but not yet completed (default 8)
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

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

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--model NAME] [--backend dram|base|ndp] "
                 "[--trace uniform|k|seq|str|zipf] [--k V] [--batch N] "
                 "[--batches N] [--warmup N] [--host-cache] [--partition] "
                 "[--ssd-cache MB] [--no-pipeline] [--all-ssd] "
                 "[--num-ssds N] [--shard-policy hash|range] "
                 "[--layout-policy log|freq] [--hot-tier-pages N] "
                 "[--seed N] [--stats] [--list-models]\n"
                 "       %s --serve [--qps R] [--arrival poisson|fixed|"
                 "bursty] [--burst B] [--queries N] [--max-batch N] "
                 "[--max-wait-us N] [--max-inflight N] [--io-queues N] "
                 "[common flags]\n"
                 "fault/tail-tolerance flags (both modes): "
                 "[--fault-plan FILE|SPEC] [--replication R] "
                 "[--hedge-delay-us N|auto] [--deadline-us N]\n"
                 "observability flags (both modes): [--trace-out FILE] "
                 "[--blame-out FILE] [--util-out FILE] "
                 "[--util-bucket-us N] [--metrics-out FILE] "
                 "[--metrics-interval-us N] [--stats-json FILE|-]\n"
                 "SLO flags (serve mode): [--slo-target-us N] "
                 "[--slo-goal F] [--slo-window-us N]\n"
                 "update flags (serve mode): [--update-rate R] "
                 "[--update-skew A] [--rw-ratio F]\n"
                 "QoS flags (serve mode): [--tenants FILE|SPEC] "
                 "[--qos-policy dmclock|fifo] [--qos-window N]\n",
                 argv0, argv0);
    std::exit(2);
}

/**
 * Value of a count flag: plain decimal digits, at most `max`. A sign,
 * a fraction, trailing text or an out-of-range value is a usage error
 * (exit 2), never a wrapped or truncated count.
 */
std::uint64_t
countValue(const char *text, std::uint64_t max, const char *argv0)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        usage(argv0);
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        usage(argv0);
    return v;
}

/**
 * Value of a real-valued flag: a fully consumed, finite number in
 * [min, max]. Trailing text, NaN, infinity or an out-of-range value
 * is a usage error (exit 2).
 */
double
realValue(const char *text, double min, double max, const char *argv0)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < min || v > max)
        usage(argv0);
    return v;
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
    std::string model_name = "RM1";
    std::string backend = "ndp";
    std::string trace = "uniform";
    double k = 1.0;
    unsigned batch = 16;
    unsigned batches = 4;
    unsigned warmup = 2;
    bool host_cache = false;
    bool partition = false;
    std::uint64_t ssd_cache_mb = 0;
    bool pipeline = true;
    bool all_ssd = false;
    unsigned num_ssds = 1;
    std::string shard_policy = "hash";
    std::string layout_policy = "log";
    unsigned hot_tier_pages = 1024;
    std::uint64_t seed = 42;
    bool dump_stats = false;
    bool serve = false;
    double qps = 50.0;
    std::string arrival = "poisson";
    double burst = 4.0;
    unsigned queries = 100;
    unsigned max_batch = 0;  // 0 = 4x batch
    unsigned max_wait_us = 500;
    unsigned max_inflight = 4;
    unsigned io_queues = 4;
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
    std::string fault_plan;
    unsigned replication = 1;
    std::string hedge_delay;
    unsigned deadline_us = 0;
    std::string tenants_spec;
    std::string qos_policy = "dmclock";
    unsigned qos_window = 8;

    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto need_count = [&](int &i) {
        return static_cast<unsigned>(
            countValue(need_value(i), UINT_MAX, argv[0]));
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--model")) {
            model_name = need_value(i);
        } else if (!std::strcmp(arg, "--backend")) {
            backend = need_value(i);
        } else if (!std::strcmp(arg, "--trace")) {
            trace = need_value(i);
        } else if (!std::strcmp(arg, "--k")) {
            k = realValue(need_value(i), 0.0, DBL_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--batch")) {
            batch = need_count(i);
        } else if (!std::strcmp(arg, "--batches")) {
            batches = need_count(i);
        } else if (!std::strcmp(arg, "--warmup")) {
            warmup = need_count(i);
        } else if (!std::strcmp(arg, "--host-cache")) {
            host_cache = true;
        } else if (!std::strcmp(arg, "--partition")) {
            partition = true;
        } else if (!std::strcmp(arg, "--ssd-cache")) {
            // Bounded so the byte count below cannot overflow.
            ssd_cache_mb =
                countValue(need_value(i), UINT64_MAX >> 20, argv[0]);
        } else if (!std::strcmp(arg, "--no-pipeline")) {
            pipeline = false;
        } else if (!std::strcmp(arg, "--all-ssd")) {
            all_ssd = true;
        } else if (!std::strcmp(arg, "--num-ssds")) {
            num_ssds = need_count(i);
        } else if (!std::strcmp(arg, "--shard-policy")) {
            shard_policy = need_value(i);
        } else if (!std::strcmp(arg, "--layout-policy")) {
            layout_policy = need_value(i);
        } else if (!std::strcmp(arg, "--hot-tier-pages")) {
            hot_tier_pages = need_count(i);
        } else if (!std::strcmp(arg, "--seed")) {
            seed = countValue(need_value(i), UINT64_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--stats")) {
            dump_stats = true;
        } else if (!std::strcmp(arg, "--serve")) {
            serve = true;
        } else if (!std::strcmp(arg, "--qps")) {
            // Bounded below so arrival gaps stay far inside a Tick.
            qps = realValue(need_value(i), minQps, DBL_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--arrival")) {
            arrival = need_value(i);
        } else if (!std::strcmp(arg, "--burst")) {
            burst = realValue(need_value(i), 1.0, DBL_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--queries")) {
            queries = need_count(i);
        } else if (!std::strcmp(arg, "--max-batch")) {
            max_batch = need_count(i);
        } else if (!std::strcmp(arg, "--max-wait-us")) {
            max_wait_us = need_count(i);
        } else if (!std::strcmp(arg, "--max-inflight")) {
            max_inflight = need_count(i);
        } else if (!std::strcmp(arg, "--io-queues")) {
            io_queues = need_count(i);
        } else if (!std::strcmp(arg, "--trace-out")) {
            trace_out = need_value(i);
        } else if (!std::strcmp(arg, "--blame-out")) {
            blame_out = need_value(i);
        } else if (!std::strcmp(arg, "--util-out")) {
            util_out = need_value(i);
        } else if (!std::strcmp(arg, "--util-bucket-us")) {
            util_bucket_us = need_count(i);
        } else if (!std::strcmp(arg, "--slo-target-us")) {
            slo_target_us = need_count(i);
        } else if (!std::strcmp(arg, "--slo-goal")) {
            slo_goal = realValue(need_value(i), 0.0, 1.0, argv[0]);
        } else if (!std::strcmp(arg, "--slo-window-us")) {
            slo_window_us = need_count(i);
        } else if (!std::strcmp(arg, "--update-rate")) {
            update_rate = realValue(need_value(i), 0.0, DBL_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--update-skew")) {
            update_skew = realValue(need_value(i), 0.0, DBL_MAX, argv[0]);
        } else if (!std::strcmp(arg, "--rw-ratio")) {
            rw_ratio = realValue(need_value(i), 0.0, 1.0, argv[0]);
        } else if (!std::strcmp(arg, "--metrics-out")) {
            metrics_out = need_value(i);
        } else if (!std::strcmp(arg, "--metrics-interval-us")) {
            metrics_interval_us = need_count(i);
        } else if (!std::strcmp(arg, "--stats-json")) {
            stats_json = need_value(i);
        } else if (!std::strcmp(arg, "--fault-plan")) {
            fault_plan = need_value(i);
        } else if (!std::strcmp(arg, "--replication")) {
            replication = need_count(i);
        } else if (!std::strcmp(arg, "--hedge-delay-us")) {
            hedge_delay = need_value(i);
        } else if (!std::strcmp(arg, "--deadline-us")) {
            deadline_us = need_count(i);
        } else if (!std::strcmp(arg, "--tenants")) {
            tenants_spec = need_value(i);
        } else if (!std::strcmp(arg, "--qos-policy")) {
            qos_policy = need_value(i);
        } else if (!std::strcmp(arg, "--qos-window")) {
            qos_window = need_count(i);
        } else if (!std::strcmp(arg, "--list-models")) {
            listModels();
            return 0;
        } else {
            usage(argv[0]);
        }
    }

    if (batch == 0 || batches == 0)
        usage(argv[0]);
    if (!serve && (update_rate > 0.0 || update_skew > 0.0 || rw_ratio > 0.0))
        usage(argv[0]);  // the update stream rides the serve harness
    // Tenant mixes ride the serve harness and own their update
    // streams (per-tenant update_rate/update_skew in the spec).
    if (!tenants_spec.empty() &&
        (!serve || update_rate > 0.0 || rw_ratio > 0.0))
        usage(argv[0]);
    if (rw_ratio > 0.0 && update_rate <= 0.0) {
        // Row reads arrive at qps x batch x lookups/sample; pick the
        // update rate that makes reads fraction F of all row
        // operations (reads + updates). F = 1 keeps it read-only.
        double reads_per_sec =
            qps * batch * modelByName(model_name).lookupsPerSample();
        update_rate = reads_per_sec * (1.0 - rw_ratio) / rw_ratio;
    }
    // A nonzero update rate needs a mean gap a Tick can represent.
    if (update_rate != 0.0 &&
        !(update_rate >= minUpdateRate && update_rate <= maxUpdateRate))
        usage(argv[0]);
    if (qos_policy != "dmclock" && qos_policy != "fifo")
        usage(argv[0]);
    if (qos_window == 0)
        usage(argv[0]);

    if (num_ssds == 0)
        usage(argv[0]);
    SystemConfig cfg;
    cfg.ssd.sls.embeddingCacheBytes = ssd_cache_mb * 1024 * 1024;
    cfg.shard.numShards = num_ssds;
    if (shard_policy == "hash") {
        cfg.shard.policy = ShardPolicy::TableHash;
    } else if (shard_policy == "range") {
        cfg.shard.policy = ShardPolicy::RowRange;
    } else {
        usage(argv[0]);
    }
    if (layout_policy == "log") {
        cfg.ssd.ftl.layout.policy = LayoutPolicy::Log;
    } else if (layout_policy == "freq") {
        cfg.ssd.ftl.layout.policy = LayoutPolicy::Freq;
        cfg.ssd.ftl.layout.hotTierPages = hot_tier_pages;
    } else {
        usage(argv[0]);
    }
    if (serve) {
        cfg.host.ioQueues = io_queues;
        cfg.ssd.nvme.numQueues = io_queues;
        cfg.host.balancedQueueGrants = true;
    }
    if (replication == 0)
        usage(argv[0]);
    cfg.shard.replication = replication;
    if (!fault_plan.empty())
        applyFaultPlan(cfg, FaultPlan::load(fault_plan));
    System sys(cfg);

    RunnerOptions opt;
    if (backend == "dram") {
        opt.backend = EmbeddingBackendKind::Dram;
    } else if (backend == "base") {
        opt.backend = EmbeddingBackendKind::BaselineSsd;
    } else if (backend == "ndp") {
        opt.backend = EmbeddingBackendKind::Ndp;
    } else {
        usage(argv[0]);
    }
    if (trace == "uniform") {
        opt.trace.kind = TraceKind::Uniform;
    } else if (trace == "k") {
        opt.trace.kind = TraceKind::LocalityK;
        opt.trace.k = k;
    } else if (trace == "seq") {
        opt.trace.kind = TraceKind::Sequential;
    } else if (trace == "str") {
        opt.trace.kind = TraceKind::Strided;
    } else if (trace == "zipf") {
        opt.trace.kind = TraceKind::Zipf;
    } else {
        usage(argv[0]);
    }
    opt.hostLruCache = host_cache;
    opt.staticPartition = partition;
    opt.pipeline = pipeline;
    opt.forceAllTablesOnSsd = all_ssd;
    opt.seed = seed;
    opt.resil.deadline = Tick(deadline_us) * usec;
    if (hedge_delay == "auto") {
        opt.resil.hedge.mode = HedgeMode::Auto;
    } else if (!hedge_delay.empty()) {
        std::uint64_t us = countValue(hedge_delay.c_str(), UINT_MAX, argv[0]);
        if (us == 0)
            usage(argv[0]);
        opt.resil.hedge.mode = HedgeMode::Fixed;
        opt.resil.hedge.fixedDelay = Tick(us) * usec;
    }

    const ModelConfig &model = modelByName(model_name);
    // Tenant mixes build their own per-model runners inside
    // runServeTenants; constructing the default runner too would
    // install a second, unused copy of its tables on the machine.
    std::unique_ptr<ModelRunner> runner;
    if (tenants_spec.empty())
        runner = std::make_unique<ModelRunner>(sys, model, opt);

    if (metrics_interval_us == 0 || util_bucket_us == 0)
        usage(argv[0]);
    if (!trace_out.empty() || !blame_out.empty())
        sys.enableTracing();
    if (!util_out.empty())
        sys.enableUtilization(Tick(util_bucket_us) * usec);
    if (!metrics_out.empty())
        sys.startMetricSampler(Tick(metrics_interval_us) * usec);

    // Export the recorded observability artifacts once the run ends.
    auto writeObservability = [&]() {
        if (!trace_out.empty()) {
            std::ofstream os(trace_out);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_out.c_str());
                std::exit(1);
            }
            sys.tracer().writeChromeTrace(os);
            std::printf("trace: %zu spans on %zu tracks -> %s "
                        "(load in Perfetto / chrome://tracing)\n",
                        sys.tracer().spans().size(),
                        sys.tracer().tracks().size(), trace_out.c_str());
            AttributionReport report = attribute(sys.tracer());
            report.print(std::cout);
        }
        if (!blame_out.empty()) {
            std::ofstream os(blame_out);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n",
                             blame_out.c_str());
                std::exit(1);
            }
            BlameReport blame = computeBlame(sys.tracer());
            blame.writeJson(os);
            blame.print(std::cout);
            std::printf("blame: %u requests (%u tail) -> %s\n",
                        blame.requests, blame.tailRequests,
                        blame_out.c_str());
        }
        if (!util_out.empty()) {
            std::ofstream os(util_out);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n",
                             util_out.c_str());
                std::exit(1);
            }
            UtilizationCollector &util = *sys.utilization();
            util.writeJson(os, sys.eq().now());
            std::printf("utilization: %zu resources -> %s\n",
                        util.resources().size(), util_out.c_str());
        }
        if (!metrics_out.empty()) {
            std::ofstream os(metrics_out);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n",
                             metrics_out.c_str());
                std::exit(1);
            }
            // System::run() already closed the series (final partial
            // interval included), so no extra snapshot here.
            MetricSampler &sampler = *sys.metricSampler();
            bool csv = metrics_out.size() > 4 &&
                       metrics_out.rfind(".csv") == metrics_out.size() - 4;
            if (csv)
                sampler.writeCsv(os);
            else
                sampler.writeJsonl(os);
            std::printf("metrics: %zu samples x %zu series -> %s\n",
                        sampler.rows().size(), sys.stats().size(),
                        metrics_out.c_str());
        }
        if (!stats_json.empty()) {
            if (stats_json == "-") {
                sys.dumpStatsJson(std::cout);
            } else {
                std::ofstream os(stats_json);
                if (!os) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 stats_json.c_str());
                    std::exit(1);
                }
                sys.dumpStatsJson(os);
            }
        }
    };

    if (serve && !tenants_spec.empty()) {
        TenantServeConfig tcfg;
        tcfg.tenants = TenantSet::load(tenants_spec);
        tcfg.qos.policy = qos_policy == "fifo" ? QosPolicy::Fifo
                                               : QosPolicy::Dmclock;
        tcfg.qos.window = qos_window;
        tcfg.batching.maxBatchSamples = max_batch ? max_batch : 4 * batch;
        tcfg.batching.maxWait = Tick(max_wait_us) * usec;
        tcfg.batching.maxInFlight = max_inflight;
        tcfg.defaultQueries = queries;
        tcfg.warmupQueries = std::max(1u, queries / 10);
        tcfg.seed = seed;
        if (slo_target_us > 0) {
            if (slo_window_us == 0 || slo_goal <= 0.0 || slo_goal >= 1.0)
                usage(argv[0]);
            // Window width and objective are global; each tenant's
            // monitor targets its own spec'd SLO.
            tcfg.slo.enabled = true;
            tcfg.slo.objective = slo_goal;
            tcfg.slo.window = Tick(slo_window_us) * usec;
        }

        std::printf("serving %zu tenants, backend %s, qos %s "
                    "(window %u), coalesce cap %u, %u queue pairs, "
                    "%u SSD(s) [%s]\n",
                    tcfg.tenants.size(), backend.c_str(),
                    qosPolicyName(tcfg.qos.policy), tcfg.qos.window,
                    tcfg.batching.maxBatchSamples, io_queues,
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
                            pt.sloMonitorAttainment, slo_goal,
                            pt.errorBudgetBurnRate,
                            pt.worstWindowBurnRate);
            }
        }
        std::printf("mix: %u queries, %.1f qps sustained, %llu fused "
                    "batches, %llu admissions\n",
                    ts.completedQueries, ts.achievedQps,
                    static_cast<unsigned long long>(ts.batchesDispatched),
                    static_cast<unsigned long long>(ts.totalAdmitted));
        if (dump_stats)
            sys.dumpStats(std::cout);
        writeObservability();
        return 0;
    }

    if (serve) {
        ServeConfig scfg;
        if (arrival == "poisson") {
            scfg.arrivals.process = ArrivalProcess::Poisson;
        } else if (arrival == "fixed") {
            scfg.arrivals.process = ArrivalProcess::Fixed;
        } else if (arrival == "bursty") {
            scfg.arrivals.process = ArrivalProcess::Bursty;
        } else {
            usage(argv[0]);
        }
        scfg.arrivals.qps = qps;
        scfg.arrivals.burstiness = burst;
        scfg.shape.minBatch = batch;
        scfg.shape.maxBatch = batch;
        scfg.batching.maxBatchSamples = max_batch ? max_batch : 4 * batch;
        scfg.batching.maxWait = Tick(max_wait_us) * usec;
        scfg.batching.maxInFlight = max_inflight;
        scfg.queries = queries;
        scfg.warmupQueries = std::max(1u, queries / 10);
        scfg.seed = seed;
        if (slo_target_us > 0) {
            if (slo_window_us == 0 || slo_goal <= 0.0 || slo_goal >= 1.0)
                usage(argv[0]);
            scfg.slo.enabled = true;
            scfg.slo.target = Tick(slo_target_us) * usec;
            scfg.slo.objective = slo_goal;
            scfg.slo.window = Tick(slo_window_us) * usec;
        }
        scfg.updates.rate = update_rate;
        scfg.updates.skew = update_skew;

        std::printf("serving %s, backend %s, %s arrivals @ %.1f qps, "
                    "batch %u, coalesce cap %u, %u queue pairs, "
                    "%u SSD(s) [%s]\n",
                    model.name.c_str(), backend.c_str(), arrival.c_str(),
                    qps, batch, scfg.batching.maxBatchSamples, io_queues,
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
                        s.sloMonitorAttainment, slo_goal,
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
        if (dump_stats)
            sys.dumpStats(std::cout);
        writeObservability();
        return 0;
    }

    std::printf("model %s, backend %s, trace %s, batch %u, %u+%u "
                "batches, %u/%u tables on SSD\n",
                model.name.c_str(), backend.c_str(), trace.c_str(), batch,
                warmup, batches, runner->ssdTables(), model.numTables());

    auto stats = runner->measure(batch, warmup, batches);
    std::printf("latency: avg %.1fus  min %.1fus  max %.1fus\n",
                stats.avgLatencyUs, stats.minLatencyUs,
                stats.maxLatencyUs);
    if (host_cache)
        std::printf("host LRU hit rate: %.1f%%\n",
                    stats.hostCacheHitRate * 100);
    if (partition)
        std::printf("partition hit rate: %.1f%%\n",
                    stats.partitionHitRate * 100);
    if (ssd_cache_mb)
        std::printf("SSD embed cache hit rate: %.1f%%\n",
                    stats.ssdEmbedCacheHitRate * 100);
    if (layout_policy == "freq") {
        std::printf("SSD page cache hit rate: %.1f%%\n",
                    stats.ssdPageCacheHitRate * 100);
        std::printf("hot tier hit rate: %.1f%%\n",
                    stats.hotTierHitRate * 100);
    }
    std::printf("flash page reads: %llu\n",
                static_cast<unsigned long long>(stats.flashPageReads));

    if (dump_stats)
        sys.dumpStats(std::cout);
    writeObservability();
    return 0;
}
