/**
 * @file
 * The per-layer "ladder": each rung drives one layer's public entry
 * point one operation at a time on a freshly built machine, draining
 * the event queue after every operation, so each operation is one
 * request with its own host time. A layer's self time is its rung
 * minus the rungs beneath it; the serve run's exact operation counts
 * turn self times into shares of the serve's host time.
 */

#ifndef HOSTBENCH_LADDER_H
#define HOSTBENCH_LADDER_H

#include <cstdint>
#include <string>

#include "hostbench/src/oracle.h"
#include "hostbench/src/report.h"
#include "hostbench/src/spans.h"
#include "hostbench/src/workloads.h"

namespace hostbench
{

/** Totals of one rung. */
struct Rung
{
    std::uint64_t ops = 0;
    std::int64_t hostNs = 0;
    std::uint64_t flashPages = 0;   ///< flash page reads
    std::uint64_t ftlReads = 0;     ///< Ftl::hostRead calls
    std::uint64_t commands = 0;     ///< NVMe commands issued
    std::uint64_t slsRequests = 0;  ///< device SLS requests
    std::uint64_t lookups = 0;      ///< embedding rows gathered

    double perOp(double total) const { return ops ? total / ops : 0.0; }
    double nsPerOp() const { return perOp(static_cast<double>(hostNs)); }
};

struct LadderResult
{
    /** Bare EventQueue schedule+run at `pendingDepth` pending events. */
    double kernelNsPerEvent = 0.0;
    /** Mean pending events while one query runs alone. */
    double pendingDepth = 0.0;

    Rung flashRead;   ///< FlashArray::readPage
    Rung ftlRead;     ///< Ftl::hostRead
    Rung ftlWrite;    ///< Ftl::hostWrite (scratch pages)
    Rung device;      ///< one device's backend (NDP or baseline) run
    bool deviceIsNdp = true;
    Rung sharded;     ///< ShardedSlsBackend::run over the device rung
    Rung launch;      ///< ModelRunner::launchQuery
    /** SLS ops one launched query issues. */
    double opsPerLaunch = 0.0;
    /** Tenant mixes: a plain runServe of the same model and queries. */
    Rung plainServe;

    /** Every device and sharded rung op, checked against DRAM. */
    OracleTally oracle;
};

/** Run every rung the workload's machine has. */
LadderResult runLadder(const WorkloadSpec &spec, std::uint64_t seed,
                       SpanRecorder *spans, SpanIndex parent);

/**
 * The per-layer metrics of a traced run: counts from the serve rep,
 * host costs from the ladder, obs costs from the same serve with the
 * simulator's observability on (`obs`; null when not measured).
 */
MetricValues layerMetrics(const WorkloadSpec &spec, const RepResult &rep,
                          const RepResult *obs, const LadderResult &ladder,
                          std::uint64_t failed);

}  // namespace hostbench

#endif  // HOSTBENCH_LADDER_H
