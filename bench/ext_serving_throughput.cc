/**
 * @file
 * Extension: latency-bounded throughput.
 *
 * §5 notes the single-model/single-SSD prototype kept the paper from
 * reporting latency-bounded throughput. The simulator has no such
 * limit: this bench drives RM1 open loop (Poisson arrivals) across a
 * QPS sweep and reports tail latencies and SLO attainment for the
 * hybrid baseline and for RecSSD with static partitioning.
 *
 * Expected shape: RecSSD sustains a several-fold higher arrival rate
 * at a given tail-latency target because each query occupies the
 * device for less time.
 */

#include <cstdio>

#include "bench/bench_common.h"
#include "src/reco/serving.h"

using namespace recssd;
using namespace recssd::bench;

namespace
{

ServeStats
measure(EmbeddingBackendKind kind, double qps)
{
    SystemConfig cfg;
    if (kind == EmbeddingBackendKind::Ndp)
        cfg.ssd.sls.embeddingCacheBytes = 32ull * 1024 * 1024;
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = kind;
    opt.forceAllTablesOnSsd = true;
    opt.pipeline = true;
    opt.hostLruCache = kind == EmbeddingBackendKind::BaselineSsd;
    opt.staticPartition = kind == EmbeddingBackendKind::Ndp;
    opt.trace.kind = TraceKind::LocalityK;
    opt.trace.k = 1.0;
    ModelRunner runner(sys, modelByName("RM1"), opt);

    // One query per dispatch: no coalescing, no in-flight cap.
    ServeConfig scfg;
    scfg.arrivals.qps = qps;
    scfg.shape.minBatch = 8;
    scfg.shape.maxBatch = 8;
    scfg.batching.maxBatchSamples = 8;
    scfg.batching.maxWait = 0;
    scfg.batching.maxInFlight = ~0u;
    scfg.queries = 80;
    scfg.warmupQueries = 10;
    scfg.latencySlo = 100 * msec;
    return runServe(runner, scfg);
}

}  // namespace

int
main()
{
    TablePrinter table(
        "Extension: open-loop serving, RM1 (batch 8, K=1, SLO 100ms)",
        {"backend", "offered-qps", "p50", "p95", "p99", "slo-met%",
         "achieved-qps"});

    for (double qps : {5.0, 10.0, 20.0, 40.0, 80.0}) {
        for (auto kind : {EmbeddingBackendKind::BaselineSsd,
                          EmbeddingBackendKind::Ndp}) {
            auto s = measure(kind, qps);
            table.row({kind == EmbeddingBackendKind::Ndp ? "recssd"
                                                         : "ssd-base",
                       TablePrinter::fmt(qps, 0),
                       TablePrinter::fmtUs(s.p50Us),
                       TablePrinter::fmtUs(s.p95Us),
                       TablePrinter::fmtUs(s.p99Us),
                       TablePrinter::fmt(s.sloAttainment * 100, 0),
                       TablePrinter::fmt(s.achievedQps, 1)});
        }
    }

    std::printf("\nShape: the baseline saturates (queueing collapse, SLO "
                "misses) at a fraction of the arrival rate RecSSD "
                "sustains.\n");
    return 0;
}
