/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single `EventQueue` drives a whole simulated machine (host CPU,
 * PCIe, SSD firmware, flash channels). Components schedule callbacks
 * at absolute or relative ticks; events scheduled for the same tick
 * fire in FIFO order, which keeps the simulation deterministic.
 */

#ifndef RECSSD_COMMON_EVENT_QUEUE_H
#define RECSSD_COMMON_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace recssd
{

class Tracer;                // src/obs — attached here so every layer
class UtilizationCollector;  // can reach them without new plumbing

/**
 * Priority queue of timed callbacks; the heart of the simulator.
 *
 * Callbacks sit in a slot pool and never move while pending; the
 * ordering structure is a 4-ary min-heap of 24-byte (when, seq, slot)
 * keys, so a sift moves keys, not callables. A callback runs in its
 * slot, and the slot is freed (and reused LIFO) once it returns.
 *
 * A series (`scheduleSeries`) is a sorted run of timed items known up
 * front, such as a serve's query arrivals. It reserves one sequence
 * number per item when scheduled but keeps only its next item in the
 * heap and draws each successor as it goes, so nothing grows with its
 * length.
 */
class EventQueue
{
  public:
    /** Move-only; captures up to kInlineCallbackBytes live inline,
     *  bigger ones spill to a reused pool (src/common/inline_function.h). */
    using Callback = InlineFunction<void()>;
    /** A series item's body: receives the item's index and sets `next`
     *  to the following item's tick (ignored after the last item). */
    using SeriesCallback = InlineFunction<void(std::size_t i, Tick &next)>;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     *
     * The callback is a *deferred body* under the deferred-state
     * protocol (DESIGN.md): its captures are issue-time snapshots, so
     * mapping-derived state must be re-validated inside before use
     * and reference captures need an ownership annotation.
     */
    void schedule(Tick when, Callback &&cb) RECSSD_DEFERS_CALLBACK;

    /** Schedule a callback `delay` ticks from now. */
    void scheduleAfter(Tick delay, Callback &&cb) RECSSD_DEFERS_CALLBACK
    {
        schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedule a sorted series of `count` items, item 0 at `first`:
     * item i runs `fire(i, next)`, which draws item i + 1's tick.
     *
     * Pops in exactly the order that calling schedule(tick[i], ...)
     * for every i, now and in index order, would give: the call
     * reserves the `count` sequence numbers eager scheduling would
     * consume, and item i pops with the key (tick[i], seq0 + i). Only
     * the next unfired item sits in the heap. Ticks must be
     * non-decreasing and start at or after now. `fire` is a deferred
     * body, like schedule()'s callback, and must not run the queue.
     */
    void scheduleSeries(Tick first, std::uint64_t count,
                        SeriesCallback &&fire) RECSSD_DEFERS_CALLBACK;

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /**
     * Number of heap entries: pending events, with a series counted
     * once while it has items left. So pending() > 0 exactly when
     * eager scheduling would leave events pending.
     */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Execute the next event, advancing time to its tick.
     * @retval false if the queue was empty.
     */
    bool runOne();

    /** Run until the queue drains. @return final simulated time. */
    Tick run();

    /**
     * Run events with tick <= limit; time ends at min(limit, drain).
     * Events scheduled beyond the limit stay queued.
     */
    Tick runUntil(Tick limit);

    /** Total number of events ever executed (series items included). */
    std::uint64_t executed() const { return executed_; }

    /** RECSSD_AUDIT only: the sequence number (FIFO tiebreak) of the
     *  last popped event, so tests can compare (when, seq) pop traces.
     *  Always 0 when the audit is off. */
    std::uint64_t auditLastSeq() const { return lastSeq_; }

    /** @{ Observability hook. Every component holds an EventQueue
     *  reference, so the queue doubles as the rendezvous point for the
     *  span tracer: null (the default) means tracing is off and
     *  instrumentation points cost one pointer check. */
    Tracer *tracer() const { return tracer_; }
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Same pattern for the resource-utilization collector: null (the
     *  default) means collection is off and every resource acquire
     *  pays one pointer check. */
    UtilizationCollector *util() const { return util_; }
    void setUtil(UtilizationCollector *util) { util_ = util; }
    /** @} */

  private:
    /** Heap key: the callback itself stays in `callbacks_[slot]`, or
     *  for a series item (slot has `kSeriesSlot` set) in `series_`. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static constexpr std::uint32_t kSeriesSlot = 1u << 31;

    /** A series with items left. */
    struct Series
    {
        std::uint64_t count = 0;
        std::uint64_t seq0 = 0;  ///< sequence number of item 0
        SeriesCallback fire;
    };

    /**
     * Pop order: earlier tick first, FIFO (by seq) within a tick. One
     * unsigned 128-bit compare of (when << 64 | seq) does both without
     * a hard-to-predict branch.
     */
    static bool
    before(const Key &a, const Key &b)
    {
        __extension__ typedef unsigned __int128 Order;
        return ((Order(a.when) << 64) | a.seq) <
               ((Order(b.when) << 64) | b.seq);
    }

    /** Insert a key into the heap (sift up). */
    void push(const Key &key);

    /** Remove the minimum key from the heap and return it. */
    Key popMin();

    /** Run the series item `key` names, then hand its successor the
     *  heap root it held while it ran. */
    void runSeriesItem(const Key &key);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    Tracer *tracer_ = nullptr;
    UtilizationCollector *util_ = nullptr;
    /** 4-ary min-heap under `before`: children of i are 4i+1..4i+4. */
    std::vector<Key> heap_;
    RecordPool<Callback> callbacks_;
    RecordPool<Series> series_;

    /** @{ RECSSD_AUDIT: pops must be strictly increasing in
     *  (when, seq) -- time never runs backwards, and same-tick events
     *  fire in FIFO order.  `audit_` caches the env lookup once. */
    bool audit_;
    bool popped_ = false;
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    /** @} */
};

}  // namespace recssd

#endif  // RECSSD_COMMON_EVENT_QUEUE_H
