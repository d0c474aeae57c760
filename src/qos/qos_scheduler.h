/**
 * @file
 * dmclock-style weighted-fair admission scheduling for multi-tenant
 * serving.
 *
 * The `QosScheduler` sits in front of the per-model `BatchScheduler`s:
 * every tenant query lands in its tenant's FIFO tag queue, and a
 * bounded admission window dequeues across tenants in dmClock order
 * (Gulati et al., OSDI'10, simplified): reservation-first — any head
 * whose reservation tag has matured is served before all
 * weight-proportional work — then weight-proportional among tenants
 * whose limit tag permits service now. Tags are assigned at arrival
 * from per-tenant virtual clocks (spacing 1/reservation, 1/weight,
 * 1/limit), so an idle tenant never banks credit, a backlogged
 * antagonist advances its own clocks ahead of real time, and the limit
 * clamps a tenant no matter how much it floods. Ties break on
 * (tag, seq) — seq is the global submission sequence — so the grant
 * order is a pure function of the submission sequence and artifacts
 * stay byte-reproducible.
 *
 * A `Fifo` policy (same admission window, arrival order, shares
 * ignored) is kept as the A/B baseline: it is exactly the
 * anonymous-stream behavior whose starvation the bench
 * `ext_qos_isolation` demonstrates.
 *
 * The scheduler is deliberately decoupled from the serving stack: it
 * admits into a caller-supplied dispatch hook, so tests drive it with
 * synthetic service processes and the harness binds it to real
 * `BatchScheduler`s.
 */

#ifndef RECSSD_QOS_QOS_SCHEDULER_H
#define RECSSD_QOS_QOS_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/load/load_gen.h"
#include "src/obs/tracer.h"
#include "src/qos/tenant_spec.h"
#include "src/reco/serving.h"

namespace recssd
{

/** Admission policy of the QoS layer. */
enum class QosPolicy
{
    Dmclock,  ///< reservation-first, then weight-proportional
    Fifo,     ///< arrival order, shares ignored (the A/B baseline)
};

const char *qosPolicyName(QosPolicy policy);

/** Knobs of the admission scheduler. */
struct QosParams
{
    QosPolicy policy = QosPolicy::Dmclock;
    /**
     * Admission window: queries admitted downstream (dispatched into
     * batch schedulers) but not yet completed. This is the capacity
     * the tenants' shares divide; FIFO uses the same window so the
     * bench A/B isolates the dequeue policy alone.
     */
    unsigned window = 8;
};

/** One tenant as the scheduler sees it: a name and a share triple. */
struct QosTenant
{
    std::string name;
    TenantShare share;
};

class QosScheduler
{
  public:
    using QueryDone = BatchScheduler::QueryDone;
    /**
     * Downstream admission hook: deliver one granted query. The
     * implementation must invoke `done` exactly once when the query
     * completes; `traceId`/`rootSpan` carry the request identity the
     * scheduler opened at submission (0/invalid when tracing is off)
     * and ownership of ending the root span moves downstream.
     */
    using Dispatch = InlineFunction<void(
        unsigned tenant, const QueryShape &shape, QueryDone done,
        std::uint64_t traceId, SpanId rootSpan)>;

    QosScheduler(EventQueue &eq, std::vector<QosTenant> tenants,
                 const QosParams &params, Dispatch dispatch);

    /** Enqueue one query for `tenant`; `done` fires on completion. */
    void submit(unsigned tenant, const QueryShape &shape, QueryDone done);

    /**
     * Charge one auxiliary operation (an update flush) against
     * `tenant`'s limit tag and return the earliest tick at or after
     * `now` the operation may run. Reads and writes drain one budget:
     * a mixed read-write antagonist is clamped by the same triple.
     */
    Tick chargeAux(unsigned tenant, Tick now);

    /** @{ Lifetime accounting, per tenant. */
    struct TenantCounters
    {
        std::uint64_t submitted = 0;
        std::uint64_t admitted = 0;
        std::uint64_t completed = 0;
        /** Grants won in the reservation (constraint) phase. */
        std::uint64_t reservationGrants = 0;
        /** Grants won in the weight-proportional phase. */
        std::uint64_t weightGrants = 0;
        /** Times this tenant's head was held back by its limit tag
         *  while the scheduler had window room. */
        std::uint64_t limitDeferrals = 0;
        /** Auxiliary (update-flush) charges against the limit tag. */
        std::uint64_t auxCharges = 0;
        unsigned maxQueueDepth = 0;
    };
    const TenantCounters &counters(unsigned tenant) const;
    unsigned pendingOf(unsigned tenant) const;
    /** @} */

    unsigned numTenants() const
    {
        return static_cast<unsigned>(tenants_.size());
    }
    unsigned inService() const { return inService_; }
    std::uint64_t totalAdmitted() const { return totalAdmitted_; }
    /** Admission order so far: one (tenant, seq) per grant. */
    const std::vector<std::pair<unsigned, std::uint64_t>> &
    grantLog() const
    {
        return grantLog_;
    }

    const QosParams &params() const { return params_; }
    const QosTenant &tenant(unsigned t) const
    {
        return tenants_.at(t).spec;
    }

  private:
    struct Pending
    {
        QueryShape shape;
        QueryDone done;
        Tick arrival = 0;
        std::uint64_t seq = 0;  ///< global submission sequence
        /** dmClock tags, double ns since t=0 (infinity = untagged). */
        double rTag = 0.0;
        double pTag = 0.0;
        double lTag = 0.0;
        /** Trace identity opened at submission (0 when off). */
        std::uint64_t traceId = 0;
        SpanId rootSpan = invalidSpan;
    };

    struct TenantState
    {
        QosTenant spec;
        std::deque<Pending> q;
        /** Virtual clocks: the last tag handed out per dimension. */
        double rClock = 0.0;
        double pClock = 0.0;
        double lClock = 0.0;
        TenantCounters counters;
        /** Interned tracer labels (lazily, first traced submit). */
        const char *rootLabel = nullptr;
        const char *queueLabel = nullptr;
    };

    /** Admit while window room remains and a head is eligible. */
    void grantLoop();
    /** Pop tenant `t`'s head and hand it downstream. */
    void grantOne(unsigned t, bool reservation_phase);
    /** Arm the wakeup timer for the earliest maturing tag. */
    void armTimer(Tick due);
    /** Earliest tick any queued head becomes eligible (maxTick if no
     *  queue is blocked on a tag). */
    Tick nextEligibleTick() const;

    EventQueue &eq_;
    /** A deque never relocates: a vector would copy tenants on growth
     *  (their queues' moves may throw), but completions are move-only. */
    std::deque<TenantState> tenants_;
    QosParams params_;
    Dispatch dispatch_;

    unsigned inService_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t totalAdmitted_ = 0;
    std::vector<std::pair<unsigned, std::uint64_t>> grantLog_;

    /** Timeout-event bookkeeping (stale timers are ignored). */
    std::uint64_t timerGen_ = 0;
    bool timerArmed_ = false;
    Tick timerDue_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_QOS_QOS_SCHEDULER_H
