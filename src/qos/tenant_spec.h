/**
 * @file
 * Multi-tenant serving: the tenant model.
 *
 * Production recommendation hosts serve many models with distinct
 * SLAs from one SSD-backed box; treating every query as one anonymous
 * stream lets a single bursty workload starve everyone. A
 * `TenantSpec` makes tenancy first-class: each tenant names a model
 * from the zoo, owns a seeded arrival process and query-shape
 * distribution, an SLO target, and a dmclock-style
 * reservation/weight/limit share triple the `QosScheduler` enforces
 * at admission. Specs parse from a compact text form (inline string
 * or file), mirroring the fault-plan grammar, so whole tenant mixes
 * are one CLI flag.
 */

#ifndef RECSSD_QOS_TENANT_SPEC_H
#define RECSSD_QOS_TENANT_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/load/load_gen.h"
#include "src/load/update_stream.h"

namespace recssd
{

/**
 * The dmclock-style share triple of one tenant. Units are operations
 * per simulated second; a query admission and an update flush each
 * cost one operation.
 */
struct TenantShare
{
    /** Guaranteed floor (ops/s); 0 = no reservation. */
    double reservation = 0.0;
    /** Proportional share of capacity left after reservations. */
    double weight = 1.0;
    /** Hard cap (ops/s); 0 = unlimited. */
    double limit = 0.0;
};

/** One tenant: a model, its traffic, its SLO, and its share. */
struct TenantSpec
{
    /** Stable name used in stats ("serve.tenant.<name>.*"), trace
     *  span labels and reports. */
    std::string name;
    /** Model from the zoo this tenant serves. Tenants naming the same
     *  model share one runner (and may coalesce into one fused batch
     *  when their query shapes are compatible). */
    std::string model = "RM1";
    ArrivalSpec arrivals;
    QueryShapeSpec shape;
    /** Per-query latency target for this tenant's SLO accounting. */
    Tick slo = 50 * msec;
    TenantShare share;
    /** Measured queries this tenant issues (0 = harness default). */
    unsigned queries = 0;
    /** Tenant-owned online-update stream (off by default). Updates
     *  are charged against this tenant's limit tag, so a mixed
     *  read-write antagonist is throttled by the same share triple
     *  as its reads. */
    UpdateStreamSpec updates;
    /** Per-tenant seed salt (combined with the harness seed). */
    std::uint64_t seed = 0;
};

/**
 * A full serving host's tenant mix.
 *
 * Spec grammar (inline form, `;`-separated; file form, one tenant per
 * line with `#` comments):
 *
 *   tenant := name [':' key '=' value (',' key '=' value)*]
 *   keys   := model (zoo name), arrival (poisson|fixed|bursty),
 *             qps (float >= 1e-6), burst (float), batch (uint, fixes
 *             the per-query sample count), tables (uint, 0 = all),
 *             pool (float pooling scale), slo (time: <float><ns|us|
 *             ms|s>), res / weight / limit (floats, ops per second),
 *             queries (uint), update_rate (rows/s: 0, or 1e-6 to
 *             1e9), update_skew (zipf alpha), seed (uint)
 *   A uint is decimal digits only and a float a fully consumed finite
 *   number (parseCount / parseReal in src/common/parse_time.h).
 *
 * Example:
 *   victim:model=RM1,qps=40,slo=20ms,res=20,weight=1;
 *   antagonist:model=RM1,qps=400,arrival=bursty,burst=8,weight=1,limit=80
 */
struct TenantSet
{
    std::vector<TenantSpec> tenants;

    /** Parse an inline spec. Panics (naming the offending token) on a
     *  malformed spec, duplicate tenant names, or non-positive
     *  weights. */
    static TenantSet parse(const std::string &spec);

    /** Parse a spec file (one tenant per line, `#` comments). */
    static TenantSet parseFile(const std::string &path);

    /** File if `spec` names a readable file, else inline. */
    static TenantSet load(const std::string &spec);

    bool empty() const { return tenants.empty(); }
    std::size_t size() const { return tenants.size(); }
};

}  // namespace recssd

#endif  // RECSSD_QOS_TENANT_SPEC_H
