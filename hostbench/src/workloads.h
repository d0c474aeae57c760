/**
 * @file
 * The benchmark's workloads and one "rep": build the simulated machine
 * from the seed, serve the workload's generated queries once, and
 * collect host times, simulated results and the stats digest.
 */

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hostbench/src/spans.h"
#include "src/core/system.h"
#include "src/qos/tenant_serve.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"

namespace hostbench
{

enum class WorkloadKind
{
    Serve,    ///< one model through runServe
    Tenants,  ///< a tenant mix through runServeTenants
};

struct WorkloadSpec
{
    std::string name;
    WorkloadKind kind = WorkloadKind::Serve;
    /** The traced run also serves once with the simulator's tracer,
     *  critical-path blame and utilization collector on (obs layer). */
    bool measuresObs = false;

    /** Tables are row-range sharded across the SSDs. */
    unsigned numSsds = 1;
    unsigned ioQueues = 4;
    /** 96 MB drive prefilled to its GC watermark before serving. */
    bool smallDriveAtGcWatermark = false;

    /** "RM1" (model zoo) or "small" (two packed 40k-row tables). */
    std::string model = "RM1";
    /** Rows of every table group when non-zero (zoo models only). */
    std::uint64_t tableRows = 0;
    recssd::EmbeddingBackendKind backend = recssd::EmbeddingBackendKind::Ndp;
    bool hostLruCache = false;
    recssd::TraceKind trace = recssd::TraceKind::Uniform;

    /** @{ Serve kind: one open-loop fixed-gap stream. `batch` also
     *  sets the ladder's query shape for a tenant mix. */
    double qps = 10.0;
    unsigned batch = 4;
    unsigned queries = 200;
    unsigned warmup = 10;
    /** @} */

    /** @{ Tenants kind: the TenantSet grammar (first tenant = victim). */
    std::string tenants;
    /** @} */
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** nullptr when no workload has this name. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The model a spec names. */
recssd::ModelConfig modelFor(const WorkloadSpec &spec);

/** Runner options a spec and seed give (also used by the ladder). */
recssd::RunnerOptions runnerOptions(const WorkloadSpec &spec,
                                    std::uint64_t seed);

/** Harness settings of a tenant mix (Tenants kind). */
recssd::TenantServeConfig tenantConfig(const WorkloadSpec &spec,
                                       std::uint64_t seed);

/** A built machine: the System and, for the Serve kind, its runner. */
struct Machine
{
    std::unique_ptr<recssd::System> sys;
    std::unique_ptr<recssd::ModelRunner> runner;
};

/**
 * Construct the machine a spec describes: System, tables + runner
 * (Serve kind), GC-watermark prefill (small drive). Tenant mixes get
 * their runners inside runServeTenants.
 */
Machine buildMachine(const WorkloadSpec &spec, std::uint64_t seed);

/** Registry snapshot: stat name -> value, sorted by name. */
std::map<std::string, double> statSnapshot(const recssd::System &sys);

/** Sum of a per-device stat ("ssd<d>.<suffix>", or "<suffix>" alone
 *  on a one-device machine). */
double deviceSum(const std::map<std::string, double> &stats,
                 unsigned num_ssds, const std::string &suffix);

struct RepResult
{
    /** @{ Host time. */
    std::int64_t setupNs = 0;
    std::int64_t serveNs = 0;
    std::int64_t blameNs = 0;   ///< blame compute + write (obs only)
    std::int64_t exportNs = 0;  ///< trace + utilization write (obs only)
    /** @} */

    /** dumpStatsJson + serve report, hashed. */
    std::uint64_t digest = 0;

    /** @{ Query accounting. */
    std::uint64_t submitted = 0;  ///< warmup + measured, all tenants
    std::uint64_t measured = 0;   ///< measured queries submitted
    std::uint64_t completed = 0;  ///< measured queries completed
    std::uint64_t degraded = 0;
    std::uint64_t batches = 0;    ///< fused batches dispatched
    /** @} */

    /** @{ Simulated results (victim tenant for a mix). */
    double simP50Us = 0.0;
    double simP95Us = 0.0;
    double simQps = 0.0;
    double simUpdatesPerS = 0.0;
    /** Latency samples behind simP50Us / simP95Us. */
    std::uint64_t simSamples = 0;
    /** @} */

    /** Row updates the mix applied (0 for the Serve kind). */
    std::uint64_t updatesApplied = 0;

    /** @{ The serve call alone: each is its value after the serve
     *  minus its value before, so set-up work (the GC prefill's
     *  writes and simulated time) is left out. */
    std::uint64_t events = 0;
    std::map<std::string, double> stats;  ///< registry deltas
    double flashChannelBusyFrac = 0.0;
    std::uint64_t fenceRedirects = 0;
    /** @} */
    /** Deepest driver queue over the machine's life. The GC prefill
     *  keeps at most one write per queue in flight, so any depth above
     *  1 is the serve's own. */
    double queueDepthHighWater = 0.0;
    /** @{ Per-layer extras from the serve report. */
    double subOpP95Us = 0.0;
    std::uint64_t scatteredOps = 0;
    double hostServedFrac = 0.0;
    double avgCoalescedSamples = 0.0;
    double queueUsMean = 0.0;
    double serviceUsMean = 0.0;
    std::uint64_t limitDeferrals = 0;
    std::uint64_t reservationGrants = 0;
    std::uint64_t updateAdmissionDeferrals = 0;
    /** @} */
    /** @{ Observability artifacts (obs only). */
    std::uint64_t traceSpans = 0;
    std::uint64_t traceBytes = 0;
    /** @} */
};

struct OracleTally;

/**
 * Build, serve, digest and tear down one machine. With `oracle`, the
 * served machine's SLS results are then checked against the DRAM
 * oracle (see checkServed) and tallied there. With `obs`, the
 * simulator's tracer and utilization collector run during the serve,
 * and the blame, trace and utilization artifacts are computed and
 * written to `artifact_dir`, then removed before returning. `spans`
 * (traced mode) gets a "rep" span with setup/serve/blame/export
 * children under `parent`.
 */
RepResult runRep(const WorkloadSpec &spec, std::uint64_t seed, bool obs,
                 const std::string &artifact_dir, SpanRecorder *spans,
                 SpanIndex parent, std::uint64_t rep_id,
                 OracleTally *oracle = nullptr);

/** Host time of constructing and destroying the machine alone. */
std::int64_t setupOnlyNs(const WorkloadSpec &spec, std::uint64_t seed);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H
