#include "src/qos/qos_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace recssd
{

const char *
qosPolicyName(QosPolicy policy)
{
    switch (policy) {
      case QosPolicy::Dmclock:
        return "dmclock";
      case QosPolicy::Fifo:
        return "fifo";
    }
    return "unknown";
}

namespace
{

constexpr double kInfTag = std::numeric_limits<double>::infinity();

/** Tag spacing (ns) of a rate in ops per simulated second. */
double
tagSpacing(double opsPerSec)
{
    return static_cast<double>(sec) / opsPerSec;
}

/** Strict (tag, seq) order: the deterministic tie-break. */
bool
tagBefore(double tag, std::uint64_t seq, double bestTag,
          std::uint64_t bestSeq)
{
    if (tag != bestTag)
        return tag < bestTag;
    return seq < bestSeq;
}

}  // namespace

QosScheduler::QosScheduler(EventQueue &eq, std::vector<QosTenant> tenants,
                           const QosParams &params, Dispatch dispatch)
    : eq_(eq), params_(params), dispatch_(std::move(dispatch))
{
    recssd_assert(!tenants.empty(), "qos: no tenants");
    recssd_assert(params_.window > 0, "qos: zero admission window");
    recssd_assert(dispatch_ != nullptr, "qos: no dispatch hook");
    for (QosTenant &t : tenants) {
        recssd_assert(t.share.weight > 0.0,
                      "qos: tenant '%s' needs weight > 0", t.name.c_str());
        recssd_assert(t.share.reservation >= 0.0 && t.share.limit >= 0.0,
                      "qos: tenant '%s' has a negative share",
                      t.name.c_str());
        recssd_assert(t.share.limit == 0.0 ||
                          t.share.limit >= t.share.reservation,
                      "qos: tenant '%s' limit below its reservation",
                      t.name.c_str());
        TenantState st;
        st.spec = std::move(t);
        tenants_.push_back(std::move(st));
    }
}

void
QosScheduler::submit(unsigned tenant, const QueryShape &shape,
                     QueryDone done)
{
    recssd_assert(tenant < tenants_.size(), "qos: bogus tenant %u",
                  tenant);
    TenantState &st = tenants_[tenant];
    Pending p;
    p.shape = shape;
    p.done = std::move(done);
    p.arrival = eq_.now();
    p.seq = nextSeq_++;

    // Tag assignment at arrival (dmClock): each dimension's clock
    // advances by its spacing, floored at real time so an idle tenant
    // re-enters at `now` instead of spending banked credit.
    const double now = static_cast<double>(p.arrival);
    const TenantShare &share = st.spec.share;
    if (params_.policy == QosPolicy::Dmclock) {
        if (share.reservation > 0.0) {
            p.rTag = std::max(now,
                              st.rClock + tagSpacing(share.reservation));
            st.rClock = p.rTag;
        } else {
            p.rTag = kInfTag;  // never reservation-eligible
        }
        p.pTag = std::max(now, st.pClock + tagSpacing(share.weight));
        st.pClock = p.pTag;
        if (share.limit > 0.0) {
            p.lTag = std::max(now, st.lClock + tagSpacing(share.limit));
            st.lClock = p.lTag;
        } else {
            p.lTag = now;  // unlimited: always limit-eligible
        }
    }

    if (Tracer *tracer = tracerOf(eq_)) {
        if (st.rootLabel == nullptr) {
            st.rootLabel = tracer->internName("query." + st.spec.name);
            st.queueLabel =
                tracer->internName("qos_queue." + st.spec.name);
        }
        p.traceId = tracer->newRequestId();
        p.rootSpan = tracer->beginRequest(st.rootLabel, p.traceId);
    }

    st.q.push_back(std::move(p));
    ++st.counters.submitted;
    st.counters.maxQueueDepth =
        std::max(st.counters.maxQueueDepth,
                 static_cast<unsigned>(st.q.size()));
    grantLoop();
}

void
QosScheduler::grantLoop()
{
    while (inService_ < params_.window) {
        const double now = static_cast<double>(eq_.now());
        unsigned best = numTenants();
        bool reservation_phase = false;
        double bestTag = kInfTag;
        std::uint64_t bestSeq = ~std::uint64_t(0);

        if (params_.policy == QosPolicy::Fifo) {
            // Arrival order across all tenants: min submission seq.
            for (unsigned t = 0; t < numTenants(); ++t) {
                const TenantState &st = tenants_[t];
                if (st.q.empty())
                    continue;
                if (best == numTenants() || st.q.front().seq < bestSeq) {
                    best = t;
                    bestSeq = st.q.front().seq;
                }
            }
        } else {
            // Reservation (constraint) phase: any head whose
            // reservation tag has matured outranks all proportional
            // work; among matured heads, min (rTag, seq).
            for (unsigned t = 0; t < numTenants(); ++t) {
                const TenantState &st = tenants_[t];
                if (st.q.empty())
                    continue;
                const Pending &head = st.q.front();
                if (head.rTag <= now &&
                    tagBefore(head.rTag, head.seq, bestTag, bestSeq)) {
                    best = t;
                    bestTag = head.rTag;
                    bestSeq = head.seq;
                }
            }
            if (best != numTenants()) {
                reservation_phase = true;
            } else {
                // Weight phase: min (pTag, seq) among heads whose
                // limit tag permits service now.
                for (unsigned t = 0; t < numTenants(); ++t) {
                    TenantState &st = tenants_[t];
                    if (st.q.empty())
                        continue;
                    const Pending &head = st.q.front();
                    if (head.lTag > now) {
                        // Held back by its own limit while the window
                        // had room (counted per scan pass).
                        ++st.counters.limitDeferrals;
                        continue;
                    }
                    if (tagBefore(head.pTag, head.seq, bestTag,
                                  bestSeq)) {
                        best = t;
                        bestTag = head.pTag;
                        bestSeq = head.seq;
                    }
                }
            }
        }

        if (best == numTenants())
            break;  // window room, but no head is eligible yet
        grantOne(best, reservation_phase);
    }

    // Work conservation across tag maturity: if capacity remains and
    // queries are queued, they are all blocked on future tags — wake
    // exactly when the earliest one matures.
    if (inService_ < params_.window) {
        Tick due = nextEligibleTick();
        if (due != maxTick)
            armTimer(due);
    }
}

void
QosScheduler::grantOne(unsigned t, bool reservation_phase)
{
    TenantState &st = tenants_[t];
    Pending p = std::move(st.q.front());
    st.q.pop_front();

    ++inService_;
    ++totalAdmitted_;
    ++st.counters.admitted;
    if (reservation_phase)
        ++st.counters.reservationGrants;
    else
        ++st.counters.weightGrants;
    grantLog_.emplace_back(t, p.seq);

    if (Tracer *tracer = tracerOf(eq_)) {
        // The tenant's admission wait, attributed to the query so
        // critical-path blame can pin tail time on the QoS layer (and
        // the label pins it on the tenant).
        if (st.queueLabel != nullptr && p.traceId != 0) {
            tracer->span(tracer->track("qos"), st.queueLabel,
                         Phase::SchedQueue, p.traceId, p.arrival,
                         eq_.now());
        }
    }

    dispatch_(t, p.shape,
              [this, t, done = std::move(p.done)](const QueryTimes &times) {
                  recssd_assert(inService_ > 0,
                                "qos: in-service underflow");
                  --inService_;
                  ++tenants_[t].counters.completed;
                  done(times);
                  grantLoop();
              },
              p.traceId, p.rootSpan);
}

Tick
QosScheduler::nextEligibleTick() const
{
    double best = kInfTag;
    for (const TenantState &st : tenants_) {
        if (st.q.empty())
            continue;
        const Pending &head = st.q.front();
        // The head becomes servable at its reservation tag or, via
        // the weight phase, once its limit tag matures.
        best = std::min(best, std::min(head.rTag, head.lTag));
    }
    if (best == kInfTag)
        return maxTick;
    double up = std::ceil(best);  // tag <= (double)tick at fire time
    if (up >= static_cast<double>(maxTick))
        return maxTick;
    return static_cast<Tick>(up);
}

void
QosScheduler::armTimer(Tick due)
{
    if (due < eq_.now())
        due = eq_.now();
    // An armed timer that fires no later than `due` still covers us:
    // its callback re-evaluates and re-arms.
    if (timerArmed_ && timerDue_ <= due)
        return;
    timerArmed_ = true;
    timerDue_ = due;
    std::uint64_t gen = ++timerGen_;
    eq_.schedule(due, [this, gen]() {
        if (gen != timerGen_)
            return;  // superseded by a later arm
        timerArmed_ = false;
        grantLoop();
    });
}

Tick
QosScheduler::chargeAux(unsigned tenant, Tick now)
{
    recssd_assert(tenant < tenants_.size(), "qos: bogus tenant %u",
                  tenant);
    TenantState &st = tenants_[tenant];
    ++st.counters.auxCharges;
    const double limit = st.spec.share.limit;
    if (params_.policy != QosPolicy::Dmclock || limit <= 0.0)
        return now;
    double tag = std::max(static_cast<double>(now),
                          st.lClock + tagSpacing(limit));
    st.lClock = tag;
    double up = std::ceil(tag);
    if (up >= static_cast<double>(maxTick))
        return maxTick;
    Tick due = static_cast<Tick>(up);
    return due < now ? now : due;
}

const QosScheduler::TenantCounters &
QosScheduler::counters(unsigned tenant) const
{
    recssd_assert(tenant < tenants_.size(), "qos: bogus tenant %u",
                  tenant);
    return tenants_[tenant].counters;
}

unsigned
QosScheduler::pendingOf(unsigned tenant) const
{
    recssd_assert(tenant < tenants_.size(), "qos: bogus tenant %u",
                  tenant);
    return static_cast<unsigned>(tenants_[tenant].q.size());
}

}  // namespace recssd
