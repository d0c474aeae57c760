/**
 * @file
 * sim-lint self-test fixture: R5 deferred-revalidate clean shapes.
 * Every body here follows the deferred-state protocol; the self-test
 * fails if the linter reports anything in this file.
 */

#include "src/common/analysis.h"

namespace r5_clean_fixture
{

using Lpn = unsigned long;
using Ppn = unsigned long;

struct MappingTable
{
    Ppn lookup(Lpn lpn) const RECSSD_LIVE_LOOKUP;
    void set(Lpn lpn, Ppn ppn) RECSSD_MAP_MUTATOR;
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

struct Device
{
    MappingTable map_;
    FlashArray flash_;
    PageCache cache_;
    void (*writeObserver_)(Lpn) = nullptr;

    void setWriteObserver(void (*obs)(Lpn)) RECSSD_NOTIFIES_MAP_SET;

    // The canonical guarded insert: re-resolve through the live map
    // before the snapshot is consumed.
    void readGuarded(Lpn lpn)
    {
        Ppn ppn = map_.lookup(lpn);
        flash_.readPage(ppn, [this, lpn, ppn]() {
            bool current = map_.lookup(lpn) == ppn;
            if (current)
                cache_.insert(lpn, ppn);
        });
    }

    // Guard and use on one line is equally dominated.
    void readGuardedCompact(Lpn lpn)
    {
        Ppn ppn = map_.lookup(lpn);
        flash_.readPage(ppn, [this, lpn, ppn]() {
            if (map_.lookup(lpn) == ppn) cache_.insert(lpn, ppn);
        });
    }

    // In-code justification when the snapshot provably cannot go
    // stale (preferred over a line suppression: it survives moves).
    void readPinned(EventQueue &eq, Lpn lpn, long delay)
    {
        Ppn ppn = map_.lookup(lpn);
        eq.scheduleAfter(delay, [this, lpn, ppn]() {
            RECSSD_DEFERRED_SAFE("region is pinned read-only for the "
                                 "lifetime of this command");
            cache_.insert(lpn, ppn);
        });
    }

    // Non-state captures (LPNs, counters, completion tokens) are
    // completion-stable identifiers, not mapping snapshots.
    void countLater(EventQueue &eq, Lpn lpn, long delay)
    {
        long issued = 7;
        eq.scheduleAfter(delay, [this, lpn, issued]() {
            cache_.insert(lpn, issued);
        });
    }

    // Observer fired at the map-set instant: mutation dominates the
    // notification in the same body.
    void writeNotifyAtSet(Lpn lpn, Ppn fresh_ppn)
    {
        map_.set(lpn, fresh_ppn);
        if (writeObserver_)
            writeObserver_(lpn);
    }
};

// The QoS scheduler's clean deferred shapes: the limit-timer wakeup
// either re-resolves the head row through the live map at fire time,
// or captures only completion-stable identifiers (tenant ids, tag
// sequence numbers) and justifies the capture.
struct QosScheduler
{
    MappingTable map_;
    EventQueue eq_;
    PageCache cache_;

    // Dequeue-at-fire-time re-resolves: the tag queue holds LPNs
    // (stable identifiers), and the PPN is looked up only when the
    // grant actually dispatches.
    void armLimitTimerGuarded(Lpn headRow, long dueTick)
    {
        Ppn ppn = map_.lookup(headRow);
        eq_.scheduleAfter(dueTick, [this, headRow, ppn]() {
            if (map_.lookup(headRow) == ppn)
                cache_.insert(headRow, ppn);
        });
    }

    // Tenant ids, virtual-clock tags, and generation counters are
    // scheduler state, not mapping state: the justification records
    // why the capture cannot go stale.
    void armGenerationTimer(Lpn headRow, long dueTick, long generation)
    {
        Ppn ppn = map_.lookup(headRow);
        eq_.scheduleAfter(dueTick, [this, headRow, ppn, generation]() {
            RECSSD_CAPTURES_MAPPING("generation counter invalidates "
                                    "stale wakeups before any use");
            if (generation >= 0 && map_.lookup(headRow) == ppn)
                cache_.insert(headRow, ppn);
        });
    }
};

// An immediate helper lambda is not a deferred body: captures are
// consumed synchronously while every snapshot is still current.
inline long
sumTwice(MappingTable &map, Lpn lpn)
{
    Ppn ppn = map.lookup(lpn);
    auto twice = [ppn]() { return static_cast<long>(ppn) * 2; };
    return twice();
}

// Per-operation records: a continuation that reads the issue-time
// PPN back out of a pooled record re-validates it (or justifies why
// it cannot go stale) exactly as a capturing body would.
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
        long bytes;
    };

    MappingTable map_;
    EventQueue eq_;
    PageCache cache_;
    RecordPool<ReadOp> reads_;

    void read(Lpn lpn, long delay)
    {
        unsigned op = reads_.put(ReadOp{lpn, map_.lookup(lpn), 0});
        eq_.scheduleAfter(delay, [this, op]() { finishGuarded(op); });
        eq_.scheduleAfter(delay, [this, op]() { finishPhysical(op); });
        eq_.scheduleAfter(delay, [this, op]() { countBytes(op); });
        issueNow(op);
    }

    void finishGuarded(unsigned op)
    {
        ReadOp read = reads_.take(op);
        if (map_.lookup(read.lpn) != read.ppn)
            return;
        cache_.insert(read.lpn, read.ppn);
    }

    void finishPhysical(unsigned op)
    {
        RECSSD_DEFERRED_SAFE("the flash layer addresses physical pages");
        ReadOp read = reads_.take(op);
        cache_.insert(read.lpn, read.ppn);
    }

    // Only non-state fields: nothing to re-validate.
    void countBytes(unsigned op)
    {
        const ReadOp &read = reads_[op];
        cache_.insert(read.lpn, read.bytes);
    }

    // Called synchronously at issue, not from a deferred body: the
    // record's PPN is still current.
    void issueNow(unsigned op)
    {
        cache_.insert(reads_[op].lpn, reads_[op].ppn);
    }
};

}  // namespace r5_clean_fixture
