/**
 * @file
 * The multi-tenant serving harness: N tenants, one machine, measured
 * isolation.
 *
 * `runServeTenants` is the multi-tenant front end of the serving core
 * (src/reco/serving.h): it instantiates one `ModelRunner` +
 * `BatchScheduler` per *distinct model* in the tenant mix, runs one
 * `ServeStream` per tenant (seed mixed from the harness seed, the
 * tenant index, and the tenant's own salt, so adding a tenant never
 * perturbs another tenant's arrival sequence), and routes every query
 * through one shared `QosScheduler` before it may reach a batch
 * scheduler. A tenant's update stream is its stream's `UpdateFlusher`,
 * whose flushes are charged against the same QoS limit tag as the
 * tenant's reads.
 *
 * Accounting is per-tenant end to end: latency quantiles, queue/service
 * split, SLO attainment against each tenant's own target, windowed
 * `SloMonitor` series, dmClock grant/deferral counters, and
 * `serve.tenant.<name>.*` registry scalars (live queue gauges during
 * the run for the metric sampler, summary scalars at the end for stats
 * JSON).
 *
 * Zero-tenant byte-identity: nothing here runs unless the caller
 * builds a `TenantServeConfig`, so default serve runs — and their
 * artifacts — are untouched.
 */

#ifndef RECSSD_QOS_TENANT_SERVE_H
#define RECSSD_QOS_TENANT_SERVE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/qos/qos_scheduler.h"
#include "src/qos/tenant_spec.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"

namespace recssd
{

/** Configuration of the multi-tenant serving harness. */
struct TenantServeConfig
{
    TenantSet tenants;
    QosParams qos;
    /** Batch-formation template for every per-model scheduler;
     *  `tenantAware` is forced on. */
    BatchPolicy batching;
    /** Measured queries per tenant when its spec leaves `queries` 0. */
    unsigned defaultQueries = 200;
    /** Warmup queries per tenant (not measured). */
    unsigned warmupQueries = 20;
    /** Windowed SLO monitor knobs; each tenant's monitor uses its own
     *  `TenantSpec::slo` as the target. `enabled` gates the series. */
    SloConfig slo;
    /** Resolves a tenant's model name to its config; null = the zoo
     *  (`modelByName`). Tests and benches inject tiny models here. */
    std::function<ModelConfig(const std::string &)> modelResolver;
    std::uint64_t seed = 99;
};

/** What the multi-tenant harness measured. */
struct TenantServeStats
{
    /** One tenant's stream; `sloAttainment` and the SLO windows are
     *  against the tenant's own target. */
    struct PerTenant : StreamStats
    {
        std::string name;
        std::string model;

        QosScheduler::TenantCounters qos;

        /** @{ Tenant-owned update stream (zero when off). */
        std::uint64_t updatesSubmitted = 0;
        std::uint64_t updatesApplied = 0;
        std::uint64_t updateFlushes = 0;
        /** Flushes held back by the tenant's QoS limit budget. */
        std::uint64_t updateAdmissionDeferrals = 0;
        /** @} */
    };

    std::vector<PerTenant> perTenant;

    /** Whole-mix aggregates. */
    unsigned completedQueries = 0;
    double achievedQps = 0.0;
    std::uint64_t batchesDispatched = 0;
    std::uint64_t totalAdmitted = 0;
};

/**
 * Serve the whole tenant mix on `sys` and measure. One runner per
 * distinct model (all built with `options`), one shared QoS scheduler
 * in `config.qos` mode. Returns when every tenant's queries (and
 * update flushes) have completed; like `runServe`, overload manifests
 * as latency, never as drops.
 */
TenantServeStats runServeTenants(System &sys, const RunnerOptions &options,
                                 const TenantServeConfig &config);

}  // namespace recssd

#endif  // RECSSD_QOS_TENANT_SERVE_H
