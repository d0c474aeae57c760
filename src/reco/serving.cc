#include "src/reco/serving.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace recssd
{

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
    std::vector<PendingQuery> members;
    unsigned samples = 0;
    unsigned tables = 0;
    double weighted_scale = 0.0;
    while (!pending_.empty()) {
        unsigned next = pending_.front().shape.batchSize;
        if (!members.empty() && samples + next > policy_.maxBatchSamples)
            break;
        // Tenant-aware formation: never fuse incompatible shapes (a
        // co-rider with heavier pooling or wider table fan-out would
        // inflate everyone's service time).
        if (policy_.tenantAware && !members.empty() &&
            (pending_.front().shape.tablesTouched !=
                 members.front().shape.tablesTouched ||
             pending_.front().shape.poolingScale !=
                 members.front().shape.poolingScale))
            break;
        PendingQuery p = std::move(pending_.front());
        pending_.pop_front();
        pendingSamples_ -= next;
        samples += next;
        tables = std::max(tables, p.shape.tablesTouched);
        weighted_scale += static_cast<double>(next) * p.shape.poolingScale;
        members.push_back(std::move(p));
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
        for (const auto &m : members) {
            tracer->span(sched, "sched_queue", Phase::SchedQueue, m.traceId,
                         m.arrival, dispatch);
            tracer->setRequestParent(m.traceId, fused.traceId);
        }
    }

    ++inFlight_;
    ++dispatched_;
    dispatchedSamples_ += samples;
    runner_.launchQueryEx(fused, [this, members = std::move(members),
                                  dispatch](Tick, bool degraded) {
        Tick complete = runner_.sys().eq().now();
        Tracer *tracer = tracerOf(runner_.sys().eq());
        for (const auto &m : members) {
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

ServeStream::ServeStream(ModelRunner &runner, const ServeConfig &config,
                         Submit submit, std::uint32_t tenant,
                         UpdateFlusher::AdmissionHook admission)
    : m_(std::make_shared<Measure>()), queries_(config.queries),
      warmupQueries_(config.warmupQueries), latencySlo_(config.latencySlo)
{
    recssd_assert(config.queries > 0, "nothing to measure");
    const std::uint64_t total =
        std::uint64_t{config.warmupQueries} + config.queries;
    recssd_assert(total <= std::numeric_limits<unsigned>::max(),
                  "%u warmup + %u measured queries overflow the query count",
                  config.warmupQueries, config.queries);
    EventQueue &eq = runner.sys().eq();

    LoadGenerator gen(config.arrivals, config.shape, config.seed);
    gen.setTenant(tenant);

    // Shared ownership: the stat registry getters the harnesses
    // register may outlive the stream.
    if (config.slo.enabled)
        m_->mon = std::make_shared<SloMonitor>(config.slo);
    Tick horizon = 0;
    if (config.updates.enabled()) {
        UpdateStreamSpec us = config.updates;
        us.tenant = tenant;
        updates_ = std::make_shared<UpdateFlusher>(
            runner.sys(), runner.ssdTableDescs(), us, config.seed,
            runner.hostCache());
        updates_->setAdmission(std::move(admission));
        // A dry pass over a copy of the generator finds the last
        // arrival, which the update stream runs up to.
        LoadGenerator dry = gen;
        for (std::uint64_t i = 0; i < total; ++i) {
            horizon += dry.nextGap();
            dry.nextShape();
        }
    }

    // Arrival ticks are relative to the start of the run; rebase on
    // the current clock so callers may warm the system up (prefill,
    // profiling) before serving. The arrivals are one lazy series:
    // each query draws its shape, then the gap to the next arrival.
    const unsigned warmup = config.warmupQueries;
    const Tick first = eq.now() + gen.nextGap();
    eq.scheduleSeries(
        first, total,
        [submit = std::move(submit), gen, arrival = first, warmup,
         m = m_](std::size_t idx, Tick &next) mutable {
            const auto i = static_cast<unsigned>(idx);
            const QueryShape shape = gen.nextShape();
            const Tick arrive = arrival;
            next = arrival += gen.nextGap();
            if (i == warmup)
                m->measureStart = arrive;
            submit(shape, [m, i, warmup, arrive](const QueryTimes &t) {
                ++m->completed;
                m->lastDone = t.complete;
                if (i < warmup)
                    return;
                // Event processing is completion-time ordered, which
                // is exactly the order the monitor requires.
                if (m->mon)
                    m->mon->record(t.complete, t.complete - arrive);
                m->latency.record(t.complete - arrive);
                m->queueing.record(t.dispatch - arrive);
                m->service.record(t.complete - t.dispatch);
                if (t.degraded)
                    ++m->degraded;
            });
        });
    // Mixed read-write serving: the update stream spans the query
    // arrival horizon, so write traffic races reads for NVMe queues,
    // firmware CPU, flash dies — and feeds GC.
    if (updates_)
        updates_->scheduleUntil(horizon);
}

void
ServeStream::summarize(StreamStats &out) const
{
    const Measure &m = *m_;
    recssd_assert(m.completed == warmupQueries_ + queries_,
                  "serving path lost queries: %u of %u completed",
                  m.completed, warmupQueries_ + queries_);
    out.completedQueries = static_cast<unsigned>(m.latency.count());
    out.meanLatencyUs = m.latency.meanUs();
    out.maxLatencyUs = m.latency.maxUs();
    out.p50Us = m.latency.percentileUs(0.50);
    out.p95Us = m.latency.percentileUs(0.95);
    out.p99Us = m.latency.percentileUs(0.99);
    out.p999Us = m.latency.percentileUs(0.999);
    out.meanQueueUs = m.queueing.meanUs();
    out.meanServiceUs = m.service.meanUs();
    out.sloAttainment = m.latency.fractionWithin(latencySlo_);
    out.degradedQueries = m.degraded;
    Tick span =
        m.lastDone > m.measureStart ? m.lastDone - m.measureStart : 1;
    out.achievedQps = static_cast<double>(queries_) /
                      (static_cast<double>(span) / sec);

    if (!m.mon)
        return;
    SloMonitor &mon = *m.mon;
    mon.finish();
    for (const SloMonitor::Window &w : mon.windows()) {
        StreamStats::SloWindow sw;
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

ServeStats
runServe(ModelRunner &runner, const ServeConfig &config)
{
    System &sys = runner.sys();
    BatchScheduler scheduler(runner, config.batching);

    // Write-path device counters snapshot before and after the run so
    // WA is a whole-run delta.
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
    const WriteSnap writes_before = snapWrites();

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

    ServeStream stream(
        runner, config,
        [&scheduler](const QueryShape &shape,
                     BatchScheduler::QueryDone done) {
            RECSSD_CAPTURES_MAPPING("scheduler is the serve harness's "
                                    "stack object; runServe drains the "
                                    "queue before returning");
            scheduler.submit(shape, std::move(done));
        });
    sys.run();

    ServeStats out;
    stream.summarize(out);
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
    if (std::shared_ptr<SloMonitor> mon = stream.monitor()) {
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
    if (const std::shared_ptr<UpdateFlusher> &updates = stream.updates()) {
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
