/**
 * @file
 * Critical-path blame attribution from a recorded trace, and the one
 * per-request span sweep that both observability reports fold.
 *
 * Phase attribution (attribution.h) answers "what kind of work" each
 * request instant was; blame attribution answers the operator's
 * question: *which resource* held the request up, and was it doing
 * work or making the request wait in line. Every instant of a
 * request's end-to-end interval is charged to the deepest span active
 * at that instant — ties broken by phase specificity, then by span
 * nesting (a later-opened span is the more specific cause) — and
 * aggregated by (track, span-name, phase), split into queueing vs
 * service. Per-request blame therefore partitions the end-to-end
 * latency exactly, tick for tick, the same invariant the phase report
 * keeps.
 *
 * The aggregate report carries two views: the whole measured
 * population, and the tail — requests whose end-to-end latency is at
 * or above the population p99 — so "68% of p99 time blocked on die 3
 * queueing" is a direct read of one row.
 *
 * `RequestSweep` is the one O(n log n) engine under both reports. The
 * winning span's phase is always the highest-priority active phase,
 * so the phase report is its per-span ticks folded by phase, and
 * blame is the same ticks folded by resource.
 */

#ifndef RECSSD_OBS_CRITICAL_PATH_H
#define RECSSD_OBS_CRITICAL_PATH_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/obs/phase.h"
#include "src/obs/tracer.h"

namespace recssd
{

/**
 * The elementary-segment sweep: index a trace once, sweep each root.
 * Roots are those named `rootName` when any exist ("query" in serve
 * mode), otherwise every root, so bench code works across harnesses.
 * A root's children are its own spans plus — for scheduler queries —
 * its fused batch's, clamped to the root interval. Each segment goes
 * to the active child with the largest key (phase priority, original
 * begin, collection index); segments no child covers are `uncovered`,
 * so the ticks partition the e2e interval exactly.
 */
class RequestSweep
{
  public:
    RequestSweep(const Tracer &tracer, const char *rootName);

    /** The measured roots, in insertion order. */
    const std::vector<const SpanRecord *> &roots() const { return roots_; }

    /** One child span and the ticks charged to it. */
    struct Charge
    {
        const SpanRecord *span = nullptr;
        Tick ticks = 0;
    };

    struct Result
    {
        std::uint64_t req = 0;
        Tick e2e = 0;
        /** Children in collection order; ticks may be zero. */
        std::vector<Charge> charges;
        Tick uncovered = 0;
    };

    Result sweep(const SpanRecord &root) const;

  private:
    std::vector<const SpanRecord *> roots_;
    /** Point-lookup index only (determinism rule R3): never iterated,
     *  and each per-request vector keeps span append order, so hash
     *  order never reaches any output. */
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        index_;
};

/**
 * One blame target: a (track, span-name, phase) triple, e.g.
 * ("flash.ch0.die1", "wait", flash.read); a PCIe `xfer` moving
 * commands or SLS results is two rows. `queueing` classifies the name —
 * waiting-in-line names (sched_queue, queue_wait, wait, fw_pause)
 * versus doing-work names (everything else).
 */
struct BlameRow
{
    std::string track;
    std::string name;
    Phase phase = Phase::Other;
    bool queueing = false;
    /** Requests whose critical path includes this target. */
    unsigned requests = 0;
    double totalUs = 0.0;
    /** Share of summed end-to-end time, whole population. */
    double fraction = 0.0;
    /** Time and share within the tail (e2e >= population p99). */
    double tailUs = 0.0;
    double tailFraction = 0.0;
};

struct BlameReport
{
    /** Rows sorted by totalUs descending (ties: track, name, phase). */
    std::vector<BlameRow> rows;
    unsigned requests = 0;
    double totalRequestUs = 0.0;
    double meanRequestUs = 0.0;
    /** Tail population: requests with e2e >= this threshold. */
    double tailThresholdUs = 0.0;
    unsigned tailRequests = 0;
    double tailTotalUs = 0.0;
    /** Share of all request time blamed on queueing rows. */
    double queueingFraction = 0.0;
    /** Same share restricted to the tail population. */
    double tailQueueingFraction = 0.0;

    void print(std::ostream &os) const;
    void writeJson(std::ostream &os) const;

    /** Heaviest row for (track, name), or nullptr (linear scan; test
     *  use). */
    const BlameRow *find(const std::string &track,
                         const std::string &name) const;
};

/** Per-request critical-path slices (exposed for tests). */
struct RequestBlame
{
    std::uint64_t req = 0;
    Tick e2e = 0;
    /** (track, name, phase) slices; sum of ticks == e2e exactly. */
    struct Slice
    {
        const char *track = "";  ///< interned track name ("" = other)
        const char *name = "";
        Phase phase = Phase::Other;
        Tick ticks = 0;
    };
    std::vector<Slice> slices;

    /** Sum of slice ticks (the partition invariant says == e2e). */
    Tick totalTicks() const;
};

/** True if `name` is a waiting-in-line span (blame kind "queue"). */
bool blameIsQueueing(const char *name);

/** Blame one request's interval (children as in `RequestSweep`). */
RequestBlame blameRequest(const Tracer &tracer, const SpanRecord &root);

/**
 * Build the aggregate blame report over the `RequestSweep` roots.
 * Under RECSSD_AUDIT every request's slices are checked to partition
 * its end-to-end interval exactly.
 */
BlameReport computeBlame(const Tracer &tracer,
                         const char *rootName = "query");

/**
 * Structural sanity of a recorded trace: every closed span has
 * begin <= end, every open count is balanced, and request parent
 * links are acyclic (a query's parent batch has no parent of its
 * own). @return number of violations (0 = clean). Fault injection
 * (die stalls, hedged duplicates) must keep this at zero.
 */
std::size_t validateSpanOrdering(const Tracer &tracer);

}  // namespace recssd

#endif  // RECSSD_OBS_CRITICAL_PATH_H
