/**
 * @file
 * Open-loop serving: load generation, batching, tail latency.
 *
 * The paper's single-model/single-SSD prototype restricted it to
 * direct request latencies (§5); this subsystem explores the metric
 * datacenter operators actually provision for. One stream core, two
 * front ends:
 *
 *  - `ServeStream`: one open-loop query stream. A seeded
 *    `LoadGenerator` (src/load) produces arrivals and per-query
 *    shapes; completions are recorded per query (arrival / dispatch /
 *    completion), so the stream reports exact p50/p95/p99 tails, the
 *    queueing-vs-service split, sustained QPS and, when enabled, a
 *    windowed SLO series and an online-update stream.
 *  - `runServe`: one stream into a `BatchScheduler`, which coalesces
 *    in-flight queries into fused batches (size cap + batching
 *    timeout + in-flight cap, DeepRecSys-style); the model runner
 *    splits each fused batch between host-DRAM structures (LRU cache
 *    / static partition) and the SSD backend, whose I/O fans out
 *    round-robin across the driver's NVMe queue pairs. A policy of
 *    `maxBatchSamples` = the query size, `maxWait` 0 and an unbounded
 *    in-flight cap is one-query-per-dispatch serving.
 *  - `runServeTenants` (src/qos/tenant_serve.h): one stream per
 *    tenant into a shared QoS admission scheduler.
 */

#ifndef RECSSD_RECO_SERVING_H
#define RECSSD_RECO_SERVING_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/load/latency_recorder.h"
#include "src/load/load_gen.h"
#include "src/load/update_stream.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/reco/model_runner.h"
#include "src/reco/update_flusher.h"

namespace recssd
{

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

/**
 * Configuration of the batched serving harness. Everything but
 * `batching` also configures one `ServeStream`, which is how
 * `runServeTenants` describes each tenant's stream.
 */
struct ServeConfig
{
    ArrivalSpec arrivals;
    QueryShapeSpec shape;
    BatchPolicy batching;
    /** Measured queries after warmup. */
    unsigned queries = 200;
    unsigned warmupQueries = 20;
    /** Latency target of `StreamStats::sloAttainment`. */
    Tick latencySlo = 50 * msec;
    /** Seeds the arrival/shape draws and the update stream. */
    std::uint64_t seed = 99;
    /** Windowed SLO monitoring (attainment + error-budget burn);
     *  disabled by default so existing harnesses are untouched. */
    SloConfig slo;
    /** Online embedding-update stream mixed into the serve run;
     *  disabled by default (rate 0) so existing harnesses — and their
     *  byte-identical artifacts — are untouched. */
    UpdateStreamSpec updates;
};

/** What one query stream measured: a plain serve, or one tenant. */
struct StreamStats
{
    /** Measured queries (warmup excluded). */
    unsigned completedQueries = 0;
    /** End-to-end query latency (arrival -> completion), measured set. */
    double meanLatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Pre-service wait (arrival -> fused-batch dispatch); for a
     *  tenant this is QoS admission plus batch formation. */
    double meanQueueUs = 0.0;
    /** Fused-batch service time (dispatch -> completion). */
    double meanServiceUs = 0.0;
    /** Fraction of measured queries within the stream's latency
     *  target (`ServeConfig::latencySlo`, a tenant's own `slo`). */
    double sloAttainment = 0.0;
    /** Measured queries over first measured arrival -> last
     *  completion. */
    double achievedQps = 0.0;
    /** Measured queries whose fused batch was answered degraded. */
    unsigned degradedQueries = 0;

    /** @{ SLO monitor output; empty/zero unless the stream's `slo` is
     *  enabled. Windows tumble over completion time. */
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
};

/** What the batched harness measured. */
struct ServeStats : StreamStats
{
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
    std::uint64_t hedgesFired = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t duplicateCompletions = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t failovers = 0;
    std::vector<unsigned> ejectedDevices;
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
 * One open-loop query stream, the core of both batched harnesses.
 * Constructing it schedules the stream on the runner's event queue:
 * `warmupQueries + queries` arrivals drawn one at a time from a
 * `LoadGenerator` seeded with `config.seed`, as one lazy series
 * (rebased on the current clock) that hands each query to `submit`;
 * then, when `config.updates` is on, an `UpdateFlusher` stream over
 * the same horizon. Completions of measured queries feed the latency,
 * queueing and service recorders and the optional `SloMonitor`.
 *
 * `runServe` binds `submit` to `BatchScheduler::submit`;
 * `runServeTenants` builds one stream per tenant, in tenant order,
 * bound to `QosScheduler::submit(tenant, ...)`.
 */
class ServeStream
{
  public:
    using Submit =
        std::function<void(const QueryShape &, BatchScheduler::QueryDone)>;

    /**
     * @param tenant Stamped on every query shape and row update (0 for
     *        a single-tenant serve).
     * @param admission The update flusher's QoS admission hook (unset:
     *        every flush dispatches immediately).
     */
    ServeStream(ModelRunner &runner, const ServeConfig &config,
                Submit submit, std::uint32_t tenant = 0,
                UpdateFlusher::AdmissionHook admission = {});

    /** Fill the summary once the run has drained; asserts that every
     *  query completed. */
    void summarize(StreamStats &out) const;

    /** First measured arrival (the measurement window's start). */
    Tick measureStart() const { return m_->measureStart; }
    Tick lastDone() const { return m_->lastDone; }
    /** Null unless `config.slo` is enabled. */
    const std::shared_ptr<SloMonitor> &monitor() const { return m_->mon; }
    /** Null unless `config.updates` is enabled. */
    const std::shared_ptr<UpdateFlusher> &updates() const
    {
        return updates_;
    }

  private:
    /** Completion accounting; shared with the completion callbacks. */
    struct Measure
    {
        LatencyRecorder latency;
        LatencyRecorder queueing;
        LatencyRecorder service;
        unsigned completed = 0;
        unsigned degraded = 0;
        /** Arrival of the first measured query. */
        Tick measureStart = 0;
        Tick lastDone = 0;
        std::shared_ptr<SloMonitor> mon;
    };

    std::shared_ptr<Measure> m_;
    std::shared_ptr<UpdateFlusher> updates_;
    unsigned queries_;
    unsigned warmupQueries_;
    Tick latencySlo_;
};

/**
 * Drive the runner through the batched multi-queue serving path: one
 * `ServeStream` coalesced through a `BatchScheduler`. Returns when
 * every query has completed; every submitted query completes
 * (overload manifests as latency, never as drops).
 */
ServeStats runServe(ModelRunner &runner, const ServeConfig &config);

}  // namespace recssd

#endif  // RECSSD_RECO_SERVING_H
