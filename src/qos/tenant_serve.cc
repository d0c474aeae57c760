#include "src/qos/tenant_serve.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
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
        sys.eq(), std::move(qosTenants), config.qos,
        [runners, schedulers, tenantRunner](
            unsigned tenant, const QueryShape &shape,
            QosScheduler::QueryDone done, std::uint64_t traceId,
            SpanId rootSpan) {
            (*schedulers)[tenantRunner[tenant]]->submitTagged(
                shape, std::move(done), traceId, rootSpan);
        });

    // One stream per tenant, in tenant order: each schedules its
    // arrival series, then its update stream, whose flushes race this
    // tenant's own reads for its QoS budget (chargeAux advances the
    // same limit tag), then everyone's NVMe queues and flash dies.
    std::vector<ServeStream> streams;
    streams.reserve(nt);
    for (unsigned t = 0; t < nt; ++t) {
        const TenantSpec &spec = config.tenants.tenants[t];
        ServeConfig sc;
        sc.arrivals = spec.arrivals;
        sc.shape = spec.shape;
        sc.queries = spec.queries > 0 ? spec.queries : config.defaultQueries;
        sc.warmupQueries = config.warmupQueries;
        sc.latencySlo = spec.slo;
        sc.seed = tenantSeed(config.seed, t, spec.seed);
        sc.slo = config.slo;
        sc.slo.target = spec.slo;
        sc.updates = spec.updates;
        streams.emplace_back(
            *(*runners)[tenantRunner[t]], sc,
            [qos, t](const QueryShape &shape,
                     BatchScheduler::QueryDone done) {
                qos->submit(t, shape, std::move(done));
            },
            t, [qos, t](Tick now) { return qos->chargeAux(t, now); });
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
    Tick first_start = maxTick;
    Tick last_done = 0;
    for (unsigned t = 0; t < nt; ++t) {
        const TenantSpec &spec = config.tenants.tenants[t];
        const ServeStream &stream = streams[t];
        TenantServeStats::PerTenant pt;
        stream.summarize(pt);
        pt.name = spec.name;
        pt.model = spec.model;
        pt.qos = qos->counters(t);
        if (const std::shared_ptr<UpdateFlusher> &u = stream.updates()) {
            pt.updatesSubmitted = u->submitted();
            pt.updatesApplied = u->applied();
            pt.updateFlushes = u->flushes();
            pt.updateAdmissionDeferrals = u->admissionDeferrals();
        }
        out.completedQueries += pt.completedQueries;
        out.perTenant.push_back(std::move(pt));
        first_start = std::min(first_start, stream.measureStart());
        last_done = std::max(last_done, stream.lastDone());
    }

    // Whole-mix throughput: measured queries over the union of the
    // tenants' measurement windows.
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
