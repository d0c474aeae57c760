/**
 * @file
 * Open-loop serving: load generation, batching, tail latency.
 *
 * The paper's single-model/single-SSD prototype restricted it to
 * direct request latencies (§5); this subsystem explores the metric
 * datacenter operators actually provision for. Two harnesses:
 *
 *  - `runOpenLoop`: the original one-query-per-dispatch Poisson
 *    harness (kept for the fig-level benches).
 *  - `runServe`: the at-scale path. A `LoadGenerator` (src/load)
 *    produces arrivals and per-query shapes; a `BatchScheduler`
 *    coalesces in-flight queries into fused batches (size cap +
 *    batching timeout + in-flight cap, DeepRecSys-style); the model
 *    runner splits each fused batch between host-DRAM structures
 *    (LRU cache / static partition) and the SSD backend, whose I/O
 *    fans out round-robin across the driver's NVMe queue pairs.
 *    Per-query timestamps (arrival / dispatch / completion) flow
 *    through the event-driven sim, so the harness reports exact
 *    p50/p95/p99 tails, queueing-vs-service breakdown, sustained QPS
 *    and the per-queue NVMe command spread.
 */

#ifndef RECSSD_RECO_SERVING_H
#define RECSSD_RECO_SERVING_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/load/latency_recorder.h"
#include "src/load/load_gen.h"
#include "src/load/update_stream.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/reco/model_runner.h"

namespace recssd
{

struct ServingConfig
{
    /** Mean arrival rate (queries per simulated second). */
    double qps = 100.0;
    /** Queries to issue after warmup. */
    unsigned queries = 200;
    /** Warmup queries (not measured). */
    unsigned warmupQueries = 20;
    /** Samples per query. */
    unsigned batchSize = 16;
    /** Latency target for SLO accounting. */
    Tick latencySlo = 50 * msec;
    std::uint64_t seed = 99;
};

struct ServingStats
{
    double meanLatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    /** Fraction of measured queries within the SLO. */
    double sloAttainment = 0.0;
    /** Completed queries / simulated wall time. */
    double achievedQps = 0.0;
};

/**
 * Drive one model runner open loop and measure. Arrivals and
 * completions interleave on the runner's System; the call returns
 * when every query has completed.
 */
ServingStats runOpenLoop(ModelRunner &runner, const ServingConfig &config);

/** Per-query timeline the scheduler reports to its caller. */
struct QueryTimes
{
    Tick arrival = 0;   ///< query hit the scheduler
    Tick dispatch = 0;  ///< fused batch launched on the runner
    Tick complete = 0;  ///< fused batch finished
    /** The fused batch carrying this query delivered a degraded
     *  answer (deadline expiry / dead-end fill on some SLS op). */
    bool degraded = false;
};

/** Knobs of the coalescing batch scheduler. */
struct BatchPolicy
{
    /** Fused-batch sample cap: dispatch as soon as this many samples
     *  are pending (a query is never split across fused batches). */
    unsigned maxBatchSamples = 64;
    /** Batching timeout: the oldest pending query never waits longer
     *  than this for co-riders before dispatch (0 = no batching). */
    Tick maxWait = 200 * usec;
    /** Concurrent fused batches in flight on the runner. */
    unsigned maxInFlight = 4;
    /**
     * Multi-tenant batch formation: only fuse queries with identical
     * (tablesTouched, poolingScale), so tenants with incompatible
     * shapes never share a fused batch (one tenant's heavy pooling
     * can't inflate another's service time). Off by default — the
     * single-tenant fuse rule, and its artifacts, are untouched.
     */
    bool tenantAware = false;
};

/**
 * Coalesces submitted queries into fused batches and runs them on a
 * `ModelRunner`. Queries are dispatched FIFO; under overload they
 * queue (latency grows) rather than being dropped — `submit`'s `done`
 * callback fires exactly once per query, always.
 */
class BatchScheduler
{
  public:
    using QueryDone = std::function<void(const QueryTimes &)>;

    BatchScheduler(ModelRunner &runner, const BatchPolicy &policy);

    /** Enqueue one query; `done` fires when its fused batch completes. */
    void submit(const QueryShape &shape, QueryDone done);

    /**
     * Enqueue one query whose trace identity was opened upstream (the
     * QoS admission layer): the scheduler takes ownership of
     * `rootSpan` and ends it when the fused batch completes. Plain
     * `submit` is this with a freshly opened root.
     */
    void submitTagged(const QueryShape &shape, QueryDone done,
                      std::uint64_t traceId, SpanId rootSpan);

    /** Queries waiting for dispatch. */
    unsigned pendingQueries() const
    {
        return static_cast<unsigned>(pending_.size());
    }
    unsigned pendingSamples() const { return pendingSamples_; }
    unsigned inFlight() const { return inFlight_; }

    /** @{ Lifetime accounting. */
    std::uint64_t batchesDispatched() const { return dispatched_; }
    std::uint64_t samplesDispatched() const { return dispatchedSamples_; }
    double avgCoalescedSamples() const
    {
        return dispatched_ ? static_cast<double>(dispatchedSamples_) /
                                 static_cast<double>(dispatched_)
                           : 0.0;
    }
    /** High-water mark of the pending-query queue. */
    unsigned maxQueueDepth() const { return maxDepth_; }
    /** @} */

  private:
    struct PendingQuery
    {
        QueryShape shape;
        Tick arrival = 0;
        QueryDone done;
        /** Trace identity of this query (0 / invalid when off). */
        std::uint64_t traceId = 0;
        SpanId rootSpan = invalidSpan;
    };

    /** Dispatch while a batch is ready and in-flight slots remain. */
    void maybeDispatch();
    /** Pop + fuse + launch one batch from the queue head. */
    void dispatchOne();
    /** Arm the batching-timeout event for the current queue head. */
    void armTimer();

    ModelRunner &runner_;
    BatchPolicy policy_;
    std::deque<PendingQuery> pending_;
    unsigned pendingSamples_ = 0;
    unsigned inFlight_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t dispatchedSamples_ = 0;
    unsigned maxDepth_ = 0;
    /** Timeout-event bookkeeping (stale timers are ignored). */
    std::uint64_t timerGen_ = 0;
    bool timerArmed_ = false;
    Tick timerDue_ = 0;
};

/** Configuration of the batched at-scale serving harness. */
struct ServeConfig
{
    ArrivalSpec arrivals;
    QueryShapeSpec shape;
    BatchPolicy batching;
    /** Measured queries after warmup. */
    unsigned queries = 200;
    unsigned warmupQueries = 20;
    Tick latencySlo = 50 * msec;
    std::uint64_t seed = 99;
    /** Windowed SLO monitoring (attainment + error-budget burn);
     *  disabled by default so existing harnesses are untouched. */
    SloConfig slo;
    /** Online embedding-update stream mixed into the serve run;
     *  disabled by default (rate 0) so existing harnesses — and their
     *  byte-identical artifacts — are untouched. */
    UpdateStreamSpec updates;
};

/** What the batched harness measured. */
struct ServeStats
{
    /** End-to-end query latency (arrival -> completion), measured set. */
    double meanLatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Scheduler-queue delay (arrival -> dispatch). */
    double meanQueueUs = 0.0;
    /** Fused-batch service time (dispatch -> completion). */
    double meanServiceUs = 0.0;
    double sloAttainment = 0.0;
    double achievedQps = 0.0;

    unsigned completedQueries = 0;
    std::uint64_t batchesDispatched = 0;
    double avgCoalescedSamples = 0.0;
    unsigned maxSchedulerDepth = 0;

    /** Lookups absorbed by host-DRAM structures (cache/partition)
     *  rather than the SSD backend, over the whole run. */
    double hostServedFraction = 0.0;

    /** @{ NVMe queue-pair spread over the whole run (device 0; the
     *  historical single-SSD fields). */
    std::vector<std::uint64_t> commandsPerQueue;
    std::vector<std::uint16_t> maxDepthPerQueue;
    /** @} */

    /** Per-device view of one SSD's share of the run. */
    struct DeviceStats
    {
        std::vector<std::uint64_t> commandsPerQueue;
        std::vector<std::uint16_t> maxDepthPerQueue;
        /** Shard sub-op service time (issue -> completion). */
        std::uint64_t subOps = 0;
        double subOpP50Us = 0.0;
        double subOpP95Us = 0.0;
        double subOpP99Us = 0.0;
        double subOpP999Us = 0.0;
        double subOpMaxUs = 0.0;
        /** Sub-op completions that arrived after their parent op had
         *  already delivered (hedge losers / post-deadline answers). */
        std::uint64_t lateCompletions = 0;
    };
    /** One entry per SSD (entry 0 repeats the legacy fields). */
    std::vector<DeviceStats> perDevice;
    /** SLS ops that fanned out to more than one device. */
    std::uint64_t scatteredOps = 0;

    /** @{ Tail-tolerance accounting; all zero unless the run used
     *  deadlines, hedging or replication, or a device died. */
    unsigned degradedQueries = 0;
    std::uint64_t hedgesFired = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t duplicateCompletions = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t failovers = 0;
    std::vector<unsigned> ejectedDevices;
    /** @} */

    /** @{ SLO monitor output; empty/zero unless `ServeConfig::slo`
     *  is enabled. Windows tumble over completion time. */
    struct SloWindow
    {
        double startUs = 0.0;
        unsigned queries = 0;
        double attainment = 0.0;
        double p50Us = 0.0;
        double p99Us = 0.0;
        /** (1 - attainment) / (1 - objective). */
        double burnRate = 0.0;
    };
    std::vector<SloWindow> sloWindows;
    double sloMonitorAttainment = 0.0;
    double errorBudgetBurnRate = 0.0;
    double worstWindowBurnRate = 0.0;
    /** @} */

    /** @{ Online-update stream + write-path accounting; all zero
     *  unless `ServeConfig::updates` is enabled. Counter fields are
     *  whole-run deltas summed over every device. */
    struct UpdateStats
    {
        std::uint64_t submitted = 0;   ///< row updates generated
        std::uint64_t applied = 0;     ///< row updates flushed
        std::uint64_t replicaWrites = 0;  ///< page writes incl. replicas
        std::uint64_t flushes = 0;
        std::uint64_t skippedDeadDevice = 0;
        double meanFlushUs = 0.0;
        double p99FlushUs = 0.0;
        /** Host-issued page writes (the update traffic itself). */
        std::uint64_t hostPageWrites = 0;
        /** Flash page programs, including GC/migration relocations. */
        std::uint64_t flashPageWrites = 0;
        std::uint64_t blockErases = 0;
        std::uint64_t gcRuns = 0;
        std::uint64_t gcPagesMigrated = 0;
        /** flashPageWrites / hostPageWrites. */
        double writeAmplification = 0.0;
        /** SLS gathers re-pointed at the live mapping by the read-
         *  after-write fence (see SlsEngine::fenceRedirects). */
        std::uint64_t fenceRedirects = 0;
    } update;
    /** @} */
};

/**
 * Finish `mon` and copy its windows and overall attainment / burn
 * rates into the SLO fields of `out` (a `ServeStats` or a tenant's
 * per-tenant stats, which share the field names).
 */
template <typename Stats>
void
summarizeSlo(SloMonitor &mon, Stats &out)
{
    mon.finish();
    for (const SloMonitor::Window &w : mon.windows()) {
        ServeStats::SloWindow sw;
        sw.startUs = ticksToUs(w.start);
        sw.queries = w.queries;
        sw.attainment = w.attainment();
        sw.p50Us = w.p50Us;
        sw.p99Us = w.p99Us;
        sw.burnRate = mon.burnRate(w.attainment());
        out.sloWindows.push_back(sw);
    }
    out.sloMonitorAttainment = mon.overallAttainment();
    out.errorBudgetBurnRate = mon.overallBurnRate();
    out.worstWindowBurnRate = mon.worstWindowBurnRate();
}

/**
 * Drive the runner through the batched multi-queue serving path:
 * generate `warmupQueries + queries` arrivals open loop, coalesce
 * them through a `BatchScheduler`, and measure. Returns when every
 * query has completed; every submitted query completes (overload
 * manifests as latency, never as drops).
 */
ServeStats runServe(ModelRunner &runner, const ServeConfig &config);

}  // namespace recssd

#endif  // RECSSD_RECO_SERVING_H
