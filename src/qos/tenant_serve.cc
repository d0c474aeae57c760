#include "src/qos/tenant_serve.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/load/latency_recorder.h"
#include "src/load/load_gen.h"
#include "src/obs/metrics.h"
#include "src/obs/slo_monitor.h"
#include "src/reco/model_config.h"
#include "src/reco/update_flusher.h"

namespace recssd
{

namespace
{

/**
 * Per-tenant seed: the harness seed, the tenant's position, and its
 * own salt, mixed so adding or reordering other tenants never
 * perturbs this tenant's arrival/shape/update draws.
 */
std::uint64_t
tenantSeed(std::uint64_t seed, unsigned tenant, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ull +
           (static_cast<std::uint64_t>(tenant) + 1) * 0xbf58476d1ce4e5b9ull +
           salt;
}

}  // namespace

TenantServeStats
runServeTenants(System &sys, const RunnerOptions &options,
                const TenantServeConfig &config)
{
    recssd_assert(!config.tenants.empty(), "tenant serve: no tenants");
    EventQueue &eq = sys.eq();
    const unsigned nt = static_cast<unsigned>(config.tenants.size());

    // One runner (and one batch scheduler) per distinct model. Shared
    // ownership: the QoS dispatch hook and the registry getters below
    // outlive this frame.
    auto runners = std::make_shared<
        std::vector<std::shared_ptr<ModelRunner>>>();
    auto schedulers = std::make_shared<
        std::vector<std::shared_ptr<BatchScheduler>>>();
    std::vector<unsigned> tenantRunner(nt, 0);
    BatchPolicy batching = config.batching;
    batching.tenantAware = true;
    {
        std::vector<std::string> modelNames;
        for (unsigned t = 0; t < nt; ++t) {
            const TenantSpec &spec = config.tenants.tenants[t];
            auto it = std::find(modelNames.begin(), modelNames.end(),
                                spec.model);
            if (it == modelNames.end()) {
                modelNames.push_back(spec.model);
                ModelConfig model = config.modelResolver
                                        ? config.modelResolver(spec.model)
                                        : modelByName(spec.model);
                runners->push_back(std::make_shared<ModelRunner>(
                    sys, model, options));
                schedulers->push_back(std::make_shared<BatchScheduler>(
                    *runners->back(), batching));
                tenantRunner[t] =
                    static_cast<unsigned>(runners->size() - 1);
            } else {
                tenantRunner[t] = static_cast<unsigned>(
                    it - modelNames.begin());
            }
        }
    }

    // The shared admission scheduler, dispatching into the owning
    // tenant's per-model batch scheduler.
    std::vector<QosTenant> qosTenants;
    qosTenants.reserve(nt);
    for (const TenantSpec &spec : config.tenants.tenants)
        qosTenants.push_back(QosTenant{spec.name, spec.share});
    auto qos = std::make_shared<QosScheduler>(
        eq, std::move(qosTenants), config.qos,
        [runners, schedulers, tenantRunner](
            unsigned tenant, const QueryShape &shape,
            QosScheduler::QueryDone done, std::uint64_t traceId,
            SpanId rootSpan) {
            (*schedulers)[tenantRunner[tenant]]->submitTagged(
                shape, std::move(done), traceId, rootSpan);
        });

    // Per-tenant measurement state. Shared ownership: completion
    // callbacks and registry getters may outlive this frame.
    struct Measure
    {
        LatencyRecorder latency;
        LatencyRecorder queueing;
        LatencyRecorder service;
        unsigned completed = 0;
        unsigned degraded = 0;
        Tick lastDone = 0;
        Tick measureStart = 0;
        std::shared_ptr<SloMonitor> mon;
        std::shared_ptr<UpdateFlusher> updates;
    };
    auto measures =
        std::make_shared<std::vector<std::shared_ptr<Measure>>>();
    for (unsigned t = 0; t < nt; ++t)
        measures->push_back(std::make_shared<Measure>());

    // Arrival ticks are relative to the start of the run; rebase on
    // the current clock so callers may warm the system up first.
    const Tick base = eq.now();
    unsigned total_queries = 0;
    for (unsigned t = 0; t < nt; ++t) {
        const TenantSpec &spec = config.tenants.tenants[t];
        Measure &m = *(*measures)[t];
        const unsigned queries =
            spec.queries > 0 ? spec.queries : config.defaultQueries;
        recssd_assert(queries > 0, "tenant '%s' has nothing to measure",
                      spec.name.c_str());
        const unsigned total = config.warmupQueries + queries;
        total_queries += total;

        if (config.slo.enabled) {
            SloConfig sc = config.slo;
            sc.target = spec.slo;
            m.mon = std::make_shared<SloMonitor>(sc);
        }

        LoadGenerator gen(spec.arrivals, spec.shape,
                          tenantSeed(config.seed, t, spec.seed));
        gen.setTenant(t);
        auto arrivals = std::make_shared<const std::vector<QueryDesc>>(
            gen.schedule(total));
        m.measureStart = base + (*arrivals)[config.warmupQueries].arrival;

        // One lazy series per tenant: the heap holds each tenant's next
        // arrival, not all of them.
        std::vector<Tick> arrival_ticks;
        arrival_ticks.reserve(total);
        for (const QueryDesc &q : *arrivals)
            arrival_ticks.push_back(base + q.arrival);
        eq.scheduleSeries(std::move(arrival_ticks), [qos, measures, &config,
                                                     t, base, arrivals](
                                                        std::size_t idx) {
            RECSSD_CAPTURES_MAPPING("qos/measures/arrivals are "
                                    "shared_ptrs; config is the harness's "
                                    "stack object and runServeTenants "
                                    "drains the queue before returning");
            const auto i = static_cast<unsigned>(idx);
            const QueryDesc &q = (*arrivals)[i];
            const Tick arrive = base + q.arrival;
            qos->submit(t, q.shape, [measures, &config, t, i,
                                     arrive](const QueryTimes &qt) {
                Measure &m = *(*measures)[t];
                ++m.completed;
                m.lastDone = qt.complete;
                if (i < config.warmupQueries)
                    return;
                // Completion events are completion-time ordered — the
                // order the windowed monitor requires.
                if (m.mon)
                    m.mon->record(qt.complete, qt.complete - arrive);
                m.latency.record(qt.complete - arrive);
                m.queueing.record(qt.dispatch - arrive);
                m.service.record(qt.complete - qt.dispatch);
                if (qt.degraded)
                    ++m.degraded;
            });
        });

        // Tenant-owned update stream: flushes race this tenant's own
        // reads for its QoS budget (chargeAux advances the same limit
        // tag), then everyone's NVMe queues and flash dies.
        if (spec.updates.enabled()) {
            UpdateStreamSpec us = spec.updates;
            us.tenant = t;
            ModelRunner &runner = *(*runners)[tenantRunner[t]];
            m.updates = std::make_shared<UpdateFlusher>(
                sys, runner.ssdTableDescs(), us,
                tenantSeed(config.seed, t, spec.seed), runner.hostCache());
            m.updates->setAdmission([qos, t](Tick now) {
                return qos->chargeAux(t, now);
            });
            m.updates->scheduleUntil(arrivals->back().arrival);
        }
    }

    // Live per-tenant gauges: registered before the run so the metric
    // sampler exports tenant time series (rows sampled before this
    // point are clamped to their own width). Getters share ownership
    // of the scheduler, so stats JSON keeps working after return.
    StatRegistry &reg = sys.statsMut();
    for (unsigned t = 0; t < nt; ++t) {
        const std::string group =
            "serve.tenant." + config.tenants.tenants[t].name;
        reg.addScalar(group, "pending", [qos, t]() {
            return static_cast<double>(qos->pendingOf(t));
        });
        reg.addScalar(group, "admitted", [qos, t]() {
            return static_cast<double>(qos->counters(t).admitted);
        });
        reg.addScalar(group, "completed", [qos, t]() {
            return static_cast<double>(qos->counters(t).completed);
        });
    }

    sys.run();

    TenantServeStats out;
    for (unsigned t = 0; t < nt; ++t) {
        const TenantSpec &spec = config.tenants.tenants[t];
        Measure &m = *(*measures)[t];
        const unsigned queries =
            spec.queries > 0 ? spec.queries : config.defaultQueries;
        recssd_assert(m.completed == config.warmupQueries + queries,
                      "tenant '%s' lost queries: %u of %u completed",
                      spec.name.c_str(), m.completed,
                      config.warmupQueries + queries);

        TenantServeStats::PerTenant pt;
        pt.name = spec.name;
        pt.model = spec.model;
        pt.completedQueries = static_cast<unsigned>(m.latency.count());
        pt.meanLatencyUs = m.latency.meanUs();
        pt.maxLatencyUs = m.latency.maxUs();
        pt.p50Us = m.latency.percentileUs(0.50);
        pt.p95Us = m.latency.percentileUs(0.95);
        pt.p99Us = m.latency.percentileUs(0.99);
        pt.meanQueueUs = m.queueing.meanUs();
        pt.meanServiceUs = m.service.meanUs();
        pt.sloAttainment = m.latency.fractionWithin(spec.slo);
        pt.degradedQueries = m.degraded;
        Tick span = m.lastDone > m.measureStart
                        ? m.lastDone - m.measureStart
                        : 1;
        pt.achievedQps = static_cast<double>(queries) /
                         (static_cast<double>(span) / sec);
        pt.qos = qos->counters(t);

        if (m.mon)
            summarizeSlo(*m.mon, pt);
        if (m.updates) {
            pt.updatesSubmitted = m.updates->submitted();
            pt.updatesApplied = m.updates->applied();
            pt.updateFlushes = m.updates->flushes();
            pt.updateAdmissionDeferrals = m.updates->admissionDeferrals();
        }

        out.completedQueries += pt.completedQueries;
        out.perTenant.push_back(std::move(pt));
    }

    // Whole-mix throughput: measured queries over the union of the
    // tenants' measurement windows.
    Tick first_start = maxTick;
    Tick last_done = 0;
    for (unsigned t = 0; t < nt; ++t) {
        first_start = std::min(first_start, (*measures)[t]->measureStart);
        last_done = std::max(last_done, (*measures)[t]->lastDone);
    }
    Tick span = last_done > first_start ? last_done - first_start : 1;
    out.achievedQps = static_cast<double>(out.completedQueries) /
                      (static_cast<double>(span) / sec);
    for (const auto &sched : *schedulers)
        out.batchesDispatched += sched->batchesDispatched();
    out.totalAdmitted = qos->totalAdmitted();

    // End-of-run summary scalars (stats JSON; late columns are clamped
    // in sampler rows). Getters snapshot the finished run.
    for (const TenantServeStats::PerTenant &pt : out.perTenant) {
        const std::string group = "serve.tenant." + pt.name;
        auto shared =
            std::make_shared<TenantServeStats::PerTenant>(pt);
        reg.addScalar(group, "submitted", [shared]() {
            return static_cast<double>(shared->qos.submitted);
        });
        reg.addScalar(group, "reservation_grants", [shared]() {
            return static_cast<double>(shared->qos.reservationGrants);
        });
        reg.addScalar(group, "weight_grants", [shared]() {
            return static_cast<double>(shared->qos.weightGrants);
        });
        reg.addScalar(group, "limit_deferrals", [shared]() {
            return static_cast<double>(shared->qos.limitDeferrals);
        });
        reg.addScalar(group, "aux_charges", [shared]() {
            return static_cast<double>(shared->qos.auxCharges);
        });
        reg.addScalar(group, "max_queue_depth", [shared]() {
            return static_cast<double>(shared->qos.maxQueueDepth);
        });
        reg.addScalar(group, "p50_us", [shared]() {
            return shared->p50Us;
        });
        reg.addScalar(group, "p99_us", [shared]() {
            return shared->p99Us;
        });
        reg.addScalar(group, "slo_attainment", [shared]() {
            return shared->sloAttainment;
        });
        reg.addScalar(group, "achieved_qps", [shared]() {
            return shared->achievedQps;
        });
        reg.addScalar(group, "update_deferrals", [shared]() {
            return static_cast<double>(shared->updateAdmissionDeferrals);
        });
    }
    return out;
}

}  // namespace recssd
