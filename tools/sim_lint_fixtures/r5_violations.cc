/**
 * @file
 * sim-lint self-test fixture: R5 deferred-revalidate violations.
 *
 * The protocol (DESIGN.md "Deferred-state protocol"): state captured
 * at command issue -- a PPN, a PageView, a cache slot, a pin -- is a
 * snapshot that a racing write, trim or GC pass can invalidate before
 * the completion callback runs.  Every use of such a capture inside a
 * deferred body must be dominated by a RECSSD_LIVE_LOOKUP call.  The
 * annotations below mirror the real protocol surface (MappingTable,
 * FlashArray, Ftl) so the linter's registry pass sees the same tokens
 * it sees in src/.  Never compiled; never scanned by CI.
 */

#include "src/common/analysis.h"

namespace r5_fixture
{

using Lpn = unsigned long;
using Ppn = unsigned long;

struct MappingTable
{
    Ppn lookup(Lpn lpn) const RECSSD_LIVE_LOOKUP;
    void set(Lpn lpn, Ppn ppn) RECSSD_MAP_MUTATOR;
    void unset(Lpn lpn) RECSSD_MAP_MUTATOR;
};

struct FlashArray
{
    template <typename Done>
    void readPage(Ppn ppn, Done done) RECSSD_DEFERS_CALLBACK;
};

struct EventQueue
{
    template <typename Fn>
    void scheduleAfter(long delay, Fn fn) RECSSD_DEFERS_CALLBACK;
};

struct PageCache
{
    void insert(Lpn lpn, Ppn ppn);
};

struct HotTier
{
    void pinFromRead(Lpn lpn, Ppn ppn);
};

struct Device
{
    MappingTable map_;
    FlashArray flash_;
    PageCache cache_;
    HotTier tier_;
    void (*writeObserver_)(Lpn) = nullptr;

    void setWriteObserver(void (*obs)(Lpn)) RECSSD_NOTIFIES_MAP_SET;

    // The PR 8 bug class verbatim: `ppn` was resolved at issue time;
    // by the time the flash read completes a racing write may have
    // remapped the LPN, and the insert poisons the page cache with a
    // mapping that no longer exists.
    void readStaleInsert(Lpn lpn)
    {
        Ppn ppn = map_.lookup(lpn);
        flash_.readPage(ppn, [this, lpn, ppn]() {
            cache_.insert(lpn, ppn);  // expect: R5
        });
    }

    // A live lookup AFTER the first use does not help: the pin below
    // already consumed the stale snapshot.
    void pinThenCheck(Lpn lpn)
    {
        Ppn ppn = map_.lookup(lpn);
        flash_.readPage(ppn, [this, lpn, ppn]() {
            tier_.pinFromRead(lpn, ppn);  // expect: R5
            if (map_.lookup(lpn) != ppn)
                return;
        });
    }

    // Scheduled events are deferred bodies too: a tick later the
    // snapshot is just as stale as after a flash completion.
    void insertLater(EventQueue &eq, Lpn lpn, long delay)
    {
        Ppn ppn = map_.lookup(lpn);
        eq.scheduleAfter(delay, [this, lpn, ppn]() {
            cache_.insert(lpn, ppn);  // expect: R5
        });
    }

    // Observer fired at command entry: readers notified *before* the
    // map mutation observe the old mapping and re-read stale rows
    // (PR 8's observer-at-entry bug).
    void writeNotifyEarly(Lpn lpn, Ppn fresh_ppn)
    {
        if (writeObserver_)
            writeObserver_(lpn);  // expect: R5
        map_.set(lpn, fresh_ppn);
    }
};

// The QoS subsystem's deferred shapes. A limit-throttled tenant's
// head query sits in a tag queue until the scheduler's wakeup timer
// fires; anything resolved through the mapping when the timer was
// *armed* is a snapshot by the time the deferred dequeue runs -- a
// racing update flush (same tick budget, by design) may have remapped
// the row in between.
struct QosScheduler
{
    MappingTable map_;
    EventQueue eq_;
    PageCache cache_;

    // Head row resolved at arm time, consumed at fire time: the
    // dmClock timer wakeup is a deferred body like any flash
    // completion, with the same staleness window.
    void armLimitTimer(Lpn headRow, long dueTick)
    {
        Ppn ppn = map_.lookup(headRow);
        eq_.scheduleAfter(dueTick, [this, headRow, ppn]() {
            cache_.insert(headRow, ppn);  // expect: R5
        });
    }

    // Same bug through the aux-charge path: the update flusher's
    // admission retry captures the mapping state of the deferred
    // batch, then consumes it when the budget frees up.
    void deferAdmission(Lpn batchRow, long retryTick)
    {
        Ppn ppn = map_.lookup(batchRow);
        eq_.scheduleAfter(retryTick, [this, batchRow, ppn]() {
            if (ppn != 0) cache_.insert(batchRow, ppn);  // expect: R5
        });
    }
};

// Per-operation records: the continuation captures only a record
// index, so the issue-time PPN travels in a pooled record instead of
// the capture list. Reading it back in the continuation consumes the
// same snapshot a `ppn` capture would.
template <typename T>
struct RecordPool
{
    unsigned put(T value);
    T take(unsigned index);
    T &operator[](unsigned index);
};

struct RecordDevice
{
    struct ReadOp
    {
        Lpn lpn;
        Ppn ppn;
    };

    MappingTable map_;
    EventQueue eq_;
    PageCache cache_;
    HotTier tier_;
    RecordPool<ReadOp> reads_;

    void read(Lpn lpn, long delay)
    {
        unsigned op = reads_.put(ReadOp{lpn, map_.lookup(lpn)});
        eq_.scheduleAfter(delay, [this, op]() { finishRead(op); });
        eq_.scheduleAfter(delay, [this, op]() { pinRead(op); });
    }

    // The record bound from the pool carries the stale PPN.
    void finishRead(unsigned op)
    {
        ReadOp read = reads_.take(op);
        cache_.insert(read.lpn, read.ppn);  // expect: R5
    }

    // Indexing the pool directly is the same read.
    void pinRead(unsigned op)
    {
        tier_.pinFromRead(reads_[op].lpn, reads_[op].ppn);  // expect: R5
    }
};

}  // namespace r5_fixture
