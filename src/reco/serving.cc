#include "src/reco/serving.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/reco/update_flusher.h"

namespace recssd
{

ServingStats
runOpenLoop(ModelRunner &runner, const ServingConfig &config)
{
    recssd_assert(config.qps > 0.0, "arrival rate must be positive");
    System &sys = runner.sys();
    EventQueue &eq = sys.eq();

    struct Harness
    {
        Rng rng;
        std::vector<double> samples;
        SampleStat stat;
        unsigned issued = 0;
        unsigned completed = 0;
        unsigned sloMet = 0;
        Tick measureStart = 0;
        Tick lastDone = 0;

        explicit Harness(std::uint64_t seed) : rng(seed) {}
    };
    auto h = std::make_shared<Harness>(config.seed);
    const unsigned total = config.warmupQueries + config.queries;
    const double mean_gap_ns =
        static_cast<double>(sec) / config.qps;

    // Arrival process: each arrival schedules the next with an
    // exponential gap (Poisson process). The recursive closure lives
    // in a shared holder so later firings outlive this frame.
    auto stable = std::make_shared<std::function<void()>>();
    *stable = [&runner, &eq, h, total, mean_gap_ns, config, stable]() {
        unsigned idx = h->issued++;
        if (idx == config.warmupQueries)
            h->measureStart = eq.now();
        runner.launchBatch(config.batchSize,
                           [h, idx, config, &eq](Tick latency) {
                               ++h->completed;
                               h->lastDone = eq.now();
                               if (idx >= config.warmupQueries) {
                                   h->samples.push_back(
                                       ticksToUs(latency));
                                   h->stat.record(ticksToUs(latency));
                                   if (latency <= config.latencySlo)
                                       ++h->sloMet;
                               }
                           });
        if (h->issued < total) {
            Tick gap = static_cast<Tick>(
                h->rng.exponential(mean_gap_ns));
            eq.scheduleAfter(gap, *stable);
        }
    };
    (*stable)();
    sys.run();
    recssd_assert(h->completed == total, "open loop lost queries");

    ServingStats out;
    out.meanLatencyUs = h->stat.mean();
    out.maxLatencyUs = h->stat.max();
    std::sort(h->samples.begin(), h->samples.end());
    auto pct = [&](double q) {
        if (h->samples.empty())
            return 0.0;
        auto idx = static_cast<std::size_t>(q * (h->samples.size() - 1));
        return h->samples[idx];
    };
    out.p50Us = pct(0.50);
    out.p95Us = pct(0.95);
    out.p99Us = pct(0.99);
    out.sloAttainment =
        static_cast<double>(h->sloMet) / config.queries;
    Tick span = h->lastDone > h->measureStart
                    ? h->lastDone - h->measureStart
                    : 1;
    out.achievedQps = static_cast<double>(config.queries) /
                      (static_cast<double>(span) / sec);
    return out;
}

BatchScheduler::BatchScheduler(ModelRunner &runner,
                               const BatchPolicy &policy)
    : runner_(runner), policy_(policy)
{
    recssd_assert(policy_.maxBatchSamples > 0, "zero fused-batch cap");
    recssd_assert(policy_.maxInFlight > 0, "zero in-flight cap");
}

void
BatchScheduler::submit(const QueryShape &shape, QueryDone done)
{
    std::uint64_t trace_id = 0;
    SpanId root = invalidSpan;
    if (Tracer *tracer = tracerOf(runner_.sys().eq())) {
        trace_id = tracer->newRequestId();
        root = tracer->beginRequest("query", trace_id);
    }
    submitTagged(shape, std::move(done), trace_id, root);
}

void
BatchScheduler::submitTagged(const QueryShape &shape, QueryDone done,
                             std::uint64_t traceId, SpanId rootSpan)
{
    recssd_assert(shape.batchSize > 0, "empty query");
    PendingQuery p;
    p.shape = shape;
    p.arrival = runner_.sys().eq().now();
    p.done = std::move(done);
    p.traceId = traceId;
    p.rootSpan = rootSpan;
    pending_.push_back(std::move(p));
    pendingSamples_ += shape.batchSize;
    maxDepth_ = std::max(maxDepth_,
                         static_cast<unsigned>(pending_.size()));
    maybeDispatch();
}

void
BatchScheduler::maybeDispatch()
{
    EventQueue &eq = runner_.sys().eq();
    while (!pending_.empty() && inFlight_ < policy_.maxInFlight &&
           (pendingSamples_ >= policy_.maxBatchSamples ||
            eq.now() - pending_.front().arrival >= policy_.maxWait)) {
        dispatchOne();
    }
    if (!pending_.empty() && inFlight_ < policy_.maxInFlight)
        armTimer();
}

void
BatchScheduler::armTimer()
{
    EventQueue &eq = runner_.sys().eq();
    Tick due = pending_.front().arrival + policy_.maxWait;
    if (due < eq.now())
        due = eq.now();
    // An armed timer that fires no later than `due` still covers us:
    // its callback re-evaluates and re-arms.
    if (timerArmed_ && timerDue_ <= due)
        return;
    timerArmed_ = true;
    timerDue_ = due;
    std::uint64_t gen = ++timerGen_;
    eq.schedule(due, [this, gen]() {
        if (gen != timerGen_)
            return;  // superseded by a later arm
        timerArmed_ = false;
        maybeDispatch();
    });
}

void
BatchScheduler::dispatchOne()
{
    EventQueue &eq = runner_.sys().eq();
    Tick dispatch = eq.now();

    // Fuse queries from the head of the queue, never splitting one.
    auto members = std::make_shared<std::vector<PendingQuery>>();
    unsigned samples = 0;
    unsigned tables = 0;
    double weighted_scale = 0.0;
    while (!pending_.empty()) {
        unsigned next = pending_.front().shape.batchSize;
        if (!members->empty() && samples + next > policy_.maxBatchSamples)
            break;
        // Tenant-aware formation: never fuse incompatible shapes (a
        // co-rider with heavier pooling or wider table fan-out would
        // inflate everyone's service time).
        if (policy_.tenantAware && !members->empty() &&
            (pending_.front().shape.tablesTouched !=
                 members->front().shape.tablesTouched ||
             pending_.front().shape.poolingScale !=
                 members->front().shape.poolingScale))
            break;
        PendingQuery p = std::move(pending_.front());
        pending_.pop_front();
        pendingSamples_ -= next;
        samples += next;
        tables = std::max(tables, p.shape.tablesTouched);
        weighted_scale += static_cast<double>(next) * p.shape.poolingScale;
        members->push_back(std::move(p));
        if (samples >= policy_.maxBatchSamples)
            break;
    }

    QueryShape fused;
    fused.batchSize = samples;
    fused.tablesTouched = tables;
    fused.poolingScale = weighted_scale / static_cast<double>(samples);

    // Trace identity: the fused batch gets its own request id; each
    // member query records its scheduler-queue wait and is linked to
    // the batch that carries it.
    if (Tracer *tracer = tracerOf(eq)) {
        fused.traceId = tracer->newRequestId();
        TrackId sched = tracer->track("scheduler");
        for (const auto &m : *members) {
            tracer->span(sched, "sched_queue", Phase::SchedQueue, m.traceId,
                         m.arrival, dispatch);
            tracer->setRequestParent(m.traceId, fused.traceId);
        }
    }

    ++inFlight_;
    ++dispatched_;
    dispatchedSamples_ += samples;
    runner_.launchQueryEx(fused, [this, members, dispatch](Tick,
                                                           bool degraded) {
        Tick complete = runner_.sys().eq().now();
        Tracer *tracer = tracerOf(runner_.sys().eq());
        for (auto &m : *members) {
            if (tracer)
                tracer->end(m.rootSpan);
            QueryTimes t;
            t.arrival = m.arrival;
            t.dispatch = dispatch;
            t.complete = complete;
            t.degraded = degraded;
            m.done(t);
        }
        recssd_assert(inFlight_ > 0, "in-flight underflow");
        --inFlight_;
        maybeDispatch();
    });
}

ServeStats
runServe(ModelRunner &runner, const ServeConfig &config)
{
    System &sys = runner.sys();
    EventQueue &eq = sys.eq();
    const unsigned total = config.warmupQueries + config.queries;
    recssd_assert(config.queries > 0, "nothing to measure");

    BatchScheduler scheduler(runner, config.batching);
    LoadGenerator gen(config.arrivals, config.shape, config.seed);
    auto arrivals = gen.schedule(total);

    struct Measure
    {
        LatencyRecorder latency;
        LatencyRecorder queueing;
        LatencyRecorder service;
        unsigned completed = 0;
        unsigned sloMet = 0;
        unsigned degraded = 0;
        Tick lastDone = 0;
    };
    auto m = std::make_shared<Measure>();

    // Windowed SLO monitor (opt-in). Shared ownership: the stat
    // registry getters below may outlive this frame.
    std::shared_ptr<SloMonitor> mon;
    if (config.slo.enabled)
        mon = std::make_shared<SloMonitor>(config.slo);

    // Online-update stream (opt-in). Shared ownership: the registry
    // getters below may outlive this frame. Write-path device counters
    // snapshot before and after so WA is a whole-run delta.
    std::shared_ptr<UpdateFlusher> updates;
    struct WriteSnap
    {
        std::uint64_t hostWrites = 0;
        std::uint64_t flashWrites = 0;
        std::uint64_t erases = 0;
        std::uint64_t gcRuns = 0;
        std::uint64_t gcMigrated = 0;
        std::uint64_t fenceRedirects = 0;
    };
    auto snapWrites = [&sys]() {
        WriteSnap s;
        for (unsigned d = 0; d < sys.numSsds(); ++d) {
            Ssd &ssd = sys.ssd(d);
            s.hostWrites += ssd.ftl().hostWrites();
            s.flashWrites += ssd.flash().pageWrites();
            s.erases += ssd.flash().blockErases();
            s.gcRuns += ssd.ftl().gcRuns();
            s.gcMigrated += ssd.ftl().gcPagesMigrated();
            s.fenceRedirects += ssd.slsEngine().fenceRedirects();
        }
        return s;
    };
    WriteSnap writes_before;
    if (config.updates.enabled()) {
        updates = std::make_shared<UpdateFlusher>(
            sys, runner.ssdTableDescs(), config.updates, config.seed,
            runner.hostCache());
        writes_before = snapWrites();
    }

    // Host-vs-SSD split accounting over the whole run: lookups the
    // host LRU cache / static partition absorb never reach the SSD.
    std::uint64_t host_before = 0;
    std::uint64_t total_before = 0;
    auto splitCounters = [&runner](std::uint64_t &host, std::uint64_t &all) {
        host = 0;
        all = 0;
        if (auto *cache = runner.hostCache()) {
            host += cache->hits();
            all += cache->hits() + cache->misses();
        }
        if (auto *part = runner.partition()) {
            host += part->hits();
            all += part->hits() + part->misses();
        }
    };
    splitCounters(host_before, total_before);

    // Arrival ticks are relative to the start of the run; rebase on
    // the current clock so callers may warm the system up (prefill,
    // profiling) before serving. Zero-base runs are unchanged. The
    // arrivals are one lazy series: the heap holds only the next one.
    const Tick base = eq.now();
    std::vector<Tick> arrival_ticks;
    arrival_ticks.reserve(total);
    for (const QueryDesc &q : arrivals)
        arrival_ticks.push_back(base + q.arrival);
    eq.scheduleSeries(
        std::move(arrival_ticks),
        [&scheduler, &config, &arrivals, m, mon](std::size_t idx) {
            RECSSD_CAPTURES_MAPPING("scheduler/config/arrivals are the "
                                    "serve harness's stack objects; "
                                    "runServe drains the queue before "
                                    "returning");
            const auto i = static_cast<unsigned>(idx);
            scheduler.submit(arrivals[i].shape, [&config, m, mon,
                                                 i](const QueryTimes &t) {
                ++m->completed;
                m->lastDone = t.complete;
                if (i < config.warmupQueries)
                    return;
                // Event processing is completion-time ordered, which
                // is exactly the order the monitor requires.
                if (mon)
                    mon->record(t.complete, t.complete - t.arrival);
                m->latency.record(t.complete - t.arrival);
                m->queueing.record(t.dispatch - t.arrival);
                m->service.record(t.complete - t.dispatch);
                if (t.degraded)
                    ++m->degraded;
                if (t.complete - t.arrival <= config.latencySlo)
                    ++m->sloMet;
            });
        });
    // Mixed read-write serving: the update stream spans the query
    // arrival horizon, so write traffic races reads for NVMe queues,
    // firmware CPU, flash dies — and feeds GC.
    if (updates)
        updates->scheduleUntil(arrivals.back().arrival);

    // The measurement window opens when the first measured query
    // arrives (its arrival tick is known up front).
    Tick measure_start =
        config.warmupQueries < total
            ? base + arrivals[config.warmupQueries].arrival
            : base;
    sys.run();
    recssd_assert(m->completed == total,
                  "serving path lost queries: %u of %u completed",
                  m->completed, total);

    ServeStats out;
    out.meanLatencyUs = m->latency.meanUs();
    out.maxLatencyUs = m->latency.maxUs();
    out.p50Us = m->latency.percentileUs(0.50);
    out.p95Us = m->latency.percentileUs(0.95);
    out.p99Us = m->latency.percentileUs(0.99);
    out.p999Us = m->latency.percentileUs(0.999);
    out.degradedQueries = m->degraded;
    out.meanQueueUs = m->queueing.meanUs();
    out.meanServiceUs = m->service.meanUs();
    out.sloAttainment = m->latency.fractionWithin(config.latencySlo);
    out.completedQueries = static_cast<unsigned>(m->latency.count());
    Tick span = m->lastDone > measure_start ? m->lastDone - measure_start
                                            : 1;
    out.achievedQps = static_cast<double>(config.queries) /
                      (static_cast<double>(span) / sec);
    out.batchesDispatched = scheduler.batchesDispatched();
    out.avgCoalescedSamples = scheduler.avgCoalescedSamples();
    out.maxSchedulerDepth = scheduler.maxQueueDepth();

    std::uint64_t host_after = 0;
    std::uint64_t total_after = 0;
    splitCounters(host_after, total_after);
    if (total_after > total_before) {
        out.hostServedFraction =
            static_cast<double>(host_after - host_before) /
            static_cast<double>(total_after - total_before);
    } else if (runner.options().backend == EmbeddingBackendKind::Dram) {
        out.hostServedFraction = 1.0;
    }

    UnvmeDriver &driver = sys.driver();
    for (unsigned q = 0; q < driver.numQueues(); ++q) {
        out.commandsPerQueue.push_back(driver.commandsOnQueue(q));
        out.maxDepthPerQueue.push_back(driver.queuePair(q).maxOutstanding());
    }
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        ServeStats::DeviceStats ds;
        UnvmeDriver &drv = sys.driver(d);
        for (unsigned q = 0; q < drv.numQueues(); ++q) {
            ds.commandsPerQueue.push_back(drv.commandsOnQueue(q));
            ds.maxDepthPerQueue.push_back(
                drv.queuePair(q).maxOutstanding());
        }
        out.perDevice.push_back(std::move(ds));
    }
    if (const ShardedSlsBackend *sharded = runner.shardedBackend()) {
        for (unsigned d = 0; d < sys.numSsds(); ++d) {
            ServeStats::DeviceStats &ds = out.perDevice[d];
            const LatencyRecorder &lat = sharded->shardLatency(d);
            ds.subOps = lat.count();
            if (ds.subOps > 0) {
                ds.subOpP50Us = lat.percentileUs(0.50);
                ds.subOpP95Us = lat.percentileUs(0.95);
                ds.subOpP99Us = lat.percentileUs(0.99);
                ds.subOpP999Us = lat.percentileUs(0.999);
                ds.subOpMaxUs = lat.maxUs();
            }
            ds.lateCompletions = sharded->lateCompletionsOn(d);
        }
        out.scatteredOps = sharded->scatteredOps();
        out.hedgesFired = sharded->hedgesFired();
        out.hedgeWins = sharded->hedgeWins();
        out.duplicateCompletions = sharded->duplicateCompletions();
        out.deadlineMisses = sharded->deadlineMisses();
        out.failovers = sharded->failovers();
        out.ejectedDevices = sharded->unhealthyDevices();
    }
    if (mon) {
        summarizeSlo(*mon, out);

        // Surface the monitor in the stat registry so stats JSON and
        // the metric sampler pick it up; the getters share ownership
        // of the (now finished) monitor. Default runs never reach
        // here, so registry contents stay byte-identical.
        StatRegistry &reg = sys.statsMut();
        reg.addScalar("serve.slo", "windows", [mon]() {
            return static_cast<double>(mon->windows().size());
        });
        reg.addScalar("serve.slo", "attainment", [mon]() {
            return mon->overallAttainment();
        });
        reg.addScalar("serve.slo", "burn_rate", [mon]() {
            return mon->overallBurnRate();
        });
        reg.addScalar("serve.slo", "worst_window_burn_rate", [mon]() {
            return mon->worstWindowBurnRate();
        });
    }
    if (updates) {
        WriteSnap after = snapWrites();
        ServeStats::UpdateStats &u = out.update;
        u.submitted = updates->submitted();
        u.applied = updates->applied();
        u.replicaWrites = updates->replicaWrites();
        u.flushes = updates->flushes();
        u.skippedDeadDevice = updates->skippedDeadDevice();
        if (updates->flushLatency().count() > 0) {
            u.meanFlushUs = updates->flushLatency().meanUs();
            u.p99FlushUs = updates->flushLatency().percentileUs(0.99);
        }
        u.hostPageWrites = after.hostWrites - writes_before.hostWrites;
        u.flashPageWrites = after.flashWrites - writes_before.flashWrites;
        u.blockErases = after.erases - writes_before.erases;
        u.gcRuns = after.gcRuns - writes_before.gcRuns;
        u.gcPagesMigrated = after.gcMigrated - writes_before.gcMigrated;
        u.fenceRedirects =
            after.fenceRedirects - writes_before.fenceRedirects;
        if (u.hostPageWrites > 0) {
            u.writeAmplification =
                static_cast<double>(u.flashPageWrites) /
                static_cast<double>(u.hostPageWrites);
        }

        // Surface the update stream in the stat registry (stats JSON
        // + metric sampler). The getters snapshot the finished run and
        // share ownership of the flusher. Update-free runs never reach
        // here, so registry contents stay byte-identical to the seed.
        StatRegistry &reg = sys.statsMut();
        auto shared = std::make_shared<ServeStats::UpdateStats>(u);
        reg.addScalar("serve.update", "submitted", [shared]() {
            return static_cast<double>(shared->submitted);
        });
        reg.addScalar("serve.update", "applied", [shared]() {
            return static_cast<double>(shared->applied);
        });
        reg.addScalar("serve.update", "replica_writes", [shared]() {
            return static_cast<double>(shared->replicaWrites);
        });
        reg.addScalar("serve.update", "flushes", [shared]() {
            return static_cast<double>(shared->flushes);
        });
        reg.addScalar("serve.update", "skipped_dead", [shared]() {
            return static_cast<double>(shared->skippedDeadDevice);
        });
        reg.addScalar("serve.update", "host_page_writes", [shared]() {
            return static_cast<double>(shared->hostPageWrites);
        });
        reg.addScalar("serve.update", "flash_page_writes", [shared]() {
            return static_cast<double>(shared->flashPageWrites);
        });
        reg.addScalar("serve.update", "write_amplification", [shared]() {
            return shared->writeAmplification;
        });
        reg.addScalar("serve.update", "gc_runs", [shared]() {
            return static_cast<double>(shared->gcRuns);
        });
        reg.addScalar("serve.update", "fence_redirects", [shared]() {
            return static_cast<double>(shared->fenceRedirects);
        });
    }
    return out;
}

}  // namespace recssd
