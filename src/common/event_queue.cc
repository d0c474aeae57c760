#include "src/common/event_queue.h"

#include "src/common/audit.h"
#include "src/common/logging.h"

namespace recssd
{

EventQueue::EventQueue() : audit_(auditEnabled())
{
}

void
EventQueue::schedule(Tick when, Callback &&cb)
{
    recssd_assert(when >= now_, "cannot schedule in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    recssd_assert(cb != nullptr, "cannot schedule a null callback");
    push(Key{when, nextSeq_++, callbacks_.put(std::move(cb))});
}

void
EventQueue::scheduleSeries(Tick first, std::uint64_t count,
                           SeriesCallback &&fire)
{
    if (count == 0)
        return;
    recssd_assert(fire != nullptr, "cannot schedule a null series");
    recssd_assert(first >= now_, "series starts in the past (%llu < %llu)",
                  static_cast<unsigned long long>(first),
                  static_cast<unsigned long long>(now_));
    // Reserve the sequence numbers eager scheduling would take now, so
    // every item pops with the key it would have had in the heap.
    const std::uint64_t seq0 = nextSeq_;
    nextSeq_ += count;
    std::uint32_t index = series_.put(Series{count, seq0, std::move(fire)});
    push(Key{first, seq0, index | kSeriesSlot});
}

void
EventQueue::push(const Key &key)
{
    // Sift up: move parents down into the hole until the key fits.
    std::size_t hole = heap_.size();
    heap_.push_back(key);
    while (hole > 0) {
        std::size_t parent = (hole - 1) / 4;
        if (!before(key, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

EventQueue::Key
EventQueue::popMin()
{
    Key top = heap_.front();
    Key last = heap_.back();
    heap_.pop_back();
    std::size_t n = heap_.size();
    if (n == 0)
        return top;
    // Bottom-up deletion: walk the hole from the root to a leaf along
    // the smallest-child path, then sift the displaced last key up
    // from there. It usually belongs near the bottom, so this costs
    // fewer comparisons than sifting it down from the root, and the
    // descent's only data-dependent choices are branch-free selects.
    Key *h = heap_.data();
    std::size_t hole = 0;
    while (true) {
        std::size_t first = 4 * hole + 1;
        std::size_t best;
        if (first + 3 < n) {
            std::size_t a = first + before(h[first + 1], h[first]);
            std::size_t b = first + 2 + before(h[first + 3], h[first + 2]);
            best = before(h[b], h[a]) ? b : a;
        } else if (first < n) {
            best = first;
            for (std::size_t c = first + 1; c < n; ++c)
                best = before(h[c], h[best]) ? c : best;
        } else {
            break;
        }
        h[hole] = h[best];
        hole = best;
    }
    while (hole > 0) {
        std::size_t parent = (hole - 1) / 4;
        if (!before(last, h[parent]))
            break;
        h[hole] = h[parent];
        hole = parent;
    }
    h[hole] = last;
    return top;
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    const Key key = heap_.front();
    if (audit_) {
        recssd_assert(!popped_ || key.when > lastWhen_ ||
                          (key.when == lastWhen_ && key.seq > lastSeq_),
                      "audit: event pop order regressed "
                      "(when=%llu seq=%llu after when=%llu seq=%llu)",
                      static_cast<unsigned long long>(key.when),
                      static_cast<unsigned long long>(key.seq),
                      static_cast<unsigned long long>(lastWhen_),
                      static_cast<unsigned long long>(lastSeq_));
        popped_ = true;
        lastWhen_ = key.when;
        lastSeq_ = key.seq;
    }
    now_ = key.when;
    ++executed_;
    if (key.slot & kSeriesSlot) {
        runSeriesItem(key);
        return true;
    }
    popMin();
    // Run the callback where it sits: slots never move, and this one
    // is not freed (so not reused by a re-entrant schedule) until the
    // callback returns.
    callbacks_[key.slot]();
    callbacks_.release(key.slot);
    return true;
}

void
EventQueue::runSeriesItem(const Key &key)
{
    const std::uint32_t index = key.slot & ~kSeriesSlot;
    // Series records never move, so the reference survives whatever
    // the item schedules.
    Series &series = series_[index];
    const std::uint64_t i = key.seq - series.seq0;
    Tick next = key.when;
    if (i + 1 == series.count) {
        popMin();
        series.fire(i, next);
        series_.release(index);
        return;
    }
    // The key stays at the root while the item runs: whatever it
    // schedules takes a later sequence number at a tick >= now. The
    // successor's sequence number was reserved with the series, so
    // pushing it cannot reorder it against anything else.
    series.fire(i, next);
    recssd_assert(next >= key.when,
                  "series ticks must be non-decreasing (item %llu: "
                  "%llu < %llu)",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(next),
                  static_cast<unsigned long long>(key.when));
    popMin();
    push(Key{next, key.seq + 1, key.slot});
}

Tick
EventQueue::run()
{
    while (runOne()) {
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    if (empty())
        return now_;  // nothing to simulate; time does not flow
    while (!heap_.empty() && heap_.front().when <= limit)
        runOne();
    if (now_ < limit)
        now_ = limit;
    return now_;
}

}  // namespace recssd
