/**
 * @file
 * The flash translation layer firmware model.
 *
 * One serialized firmware CPU (half of the board's dual-core A9) runs
 * command handling, translation, garbage collection bookkeeping — and,
 * in RecSSD, the NDP SLS engine's config processing and per-page
 * reduction (`src/ndp`). Flash operations themselves proceed in
 * parallel on the channel/die resources once issued.
 *
 * Logical pages equal flash pages (16KB); the NVMe layer addresses the
 * drive in those units.
 */

#ifndef RECSSD_FTL_FTL_H
#define RECSSD_FTL_FTL_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/resource.h"
#include "src/common/stats.h"
#include "src/flash/flash_array.h"
#include "src/ftl/block_manager.h"
#include "src/ftl/ftl_params.h"
#include "src/ftl/layout_manager.h"
#include "src/ftl/mapping_table.h"
#include "src/ftl/page_cache.h"

namespace recssd
{

class Ftl
{
  public:
    using ReadDone = FlashArray::ReadCallback;
    using DoneCallback = EventQueue::Callback;

    /** `track_prefix` namespaces the firmware/GC trace tracks (multi-
     *  SSD systems pass "ssd<d>." so device spans stay separable). */
    Ftl(EventQueue &eq, const FtlParams &params, FlashArray &flash,
        const std::string &track_prefix = "");

    /** @{ Host-visible block interface (used by the NVMe dispatcher). */

    /**
     * Service a host read of one logical page. Charges firmware CPU,
     * consults the page cache, then the flash array. The callback
     * receives a lazily-copied view of the page bytes (zero-filled
     * for never-written pages, like a trimmed real drive).
     */
    void hostRead(Lpn lpn, ReadDone done, std::uint64_t trace_id = 0)
        RECSSD_DEFERS_CALLBACK;

    /** Service a host write of one logical page (log append). The
     *  buffer becomes the stored page by reference: it must not
     *  change after submission. */
    void hostWrite(Lpn lpn, DataStore::Page data, DoneCallback done,
                   std::uint64_t trace_id = 0) RECSSD_DEFERS_CALLBACK;

    /** As above, copying the bytes into a fresh page buffer. */
    void hostWrite(Lpn lpn, std::span<const std::byte> data,
                   DoneCallback done, std::uint64_t trace_id = 0)
        RECSSD_DEFERS_CALLBACK
    {
        hostWrite(lpn, flash_.store().makePage(data), std::move(done),
                  trace_id);
    }

    /**
     * Deallocate a logical page (NVMe DSM). The mapping is dropped
     * and the physical copy invalidated, so subsequent reads return
     * zeroes and GC skips the data. Bulk-region pages lose their
     * overlay only (the immutable region shows through again).
     */
    void hostTrim(Lpn lpn, DoneCallback done, std::uint64_t trace_id = 0)
        RECSSD_DEFERS_CALLBACK;
    /** @} */

    /**
     * Observe every host write (the SLS engine registers here to keep
     * its embedding cache coherent with in-place table updates). The
     * stored observer reports *mapping changes*: it may only ever fire
     * right after the map mutation it reports (sim-lint R5), never at
     * command entry — a reader notified early re-reads the old row.
     */
    void setWriteObserver(std::function<void(Lpn)> observer)
        RECSSD_NOTIFIES_MAP_SET
    {
        writeObserver_ = std::move(observer);
    }

    /** @{ Services for the in-FTL SLS engine. */

    /** The serialized firmware core. */
    SerialResource &cpu() { return cpu_; }

    /** Untimed L2P translation (engine charges CPU itself). */
    Ppn translate(Lpn lpn) RECSSD_LIVE_LOOKUP { return map_.lookup(lpn); }

    /** Untimed page-cache probe (engine charges CPU itself). */
    bool cacheLookup(Lpn lpn, Ppn &ppn) RECSSD_LIVE_LOOKUP
    {
        return cache_.lookup(lpn, ppn);
    }
    void cacheInsert(Lpn lpn, Ppn ppn) { cache_.insert(lpn, ppn); }

    /** Direct flash page read, bypassing command-handling costs. */
    void readPhysical(Ppn ppn, FlashArray::ReadCallback done,
                      std::uint64_t trace_id = 0) RECSSD_DEFERS_CALLBACK
    {
        flash_.readPage(ppn, std::move(done), trace_id);
    }
    /** @} */

    /**
     * Bulk-load a logical range with synthetically generated content
     * (embedding table install). O(1) in the range length: claims
     * immutable rows, installs an identity mapping region and
     * registers the generator with the data store.
     */
    void bulkInstall(Lpn lpn_start, std::uint64_t pages,
                     DataStore::Generator gen);

    /**
     * Fault hook (`src/fault`): occupy the firmware core for
     * `duration` starting now — a housekeeping burst (log checkpoint,
     * wear-table flush). Queued commands wait behind it.
     */
    void injectFirmwarePause(Tick duration);

    /**
     * Monotonic remap epoch of one logical page: bumped every time its
     * L2P mapping changes (host write, trim, GC relocation, hot-cluster
     * migration). The SLS engine snapshots the epoch when it resolves a
     * gather's PPN and re-resolves at consume time on mismatch, so a
     * deferred translation never sums bytes from a PPN whose logical
     * page has since moved — the read-after-write old-or-new fence.
     * Never-remapped pages (including the whole bulk-installed region)
     * sit at epoch 0 and pay only a hash miss here.
     */
    std::uint64_t writeEpochOf(Lpn lpn) const RECSSD_LIVE_LOOKUP
    {
        auto it = writeEpochs_.find(lpn);
        return it == writeEpochs_.end() ? 0 : it->second;
    }

    MappingTable &map() { return map_; }
    BlockManager &blocks() { return blocks_; }
    PageCache &pageCache() { return cache_; }
    FlashArray &flash() { return flash_; }
    const FtlParams &params() const { return params_; }
    EventQueue &eventQueue() { return eq_; }

    /**
     * The frequency-aware layout subsystem, or nullptr under the
     * default `Log` policy (which then has zero footprint: no stats,
     * no extra branches that change timing).
     */
    LayoutManager *layout() { return layout_.get(); }
    const LayoutManager *layout() const { return layout_.get(); }

    /** @{ Stats. */
    std::uint64_t hostReads() const { return hostReads_.value(); }
    std::uint64_t hostWrites() const { return hostWrites_.value(); }
    std::uint64_t hostTrims() const { return hostTrims_.value(); }
    std::uint64_t gcRuns() const { return gcRuns_.value(); }
    std::uint64_t gcPagesMigrated() const { return gcPagesMigrated_.value(); }
    std::uint64_t firmwarePauses() const { return fwPauses_.value(); }
    /** @} */

  private:
    /** Bump a page's remap epoch (the write/GC/migration side of the
     *  fence read by writeEpochOf). */
    void bumpWriteEpoch(Lpn lpn) { ++writeEpochs_[lpn]; }

    /** In-flight host read command (firmware CPU, then maybe flash). */
    struct ReadCmd
    {
        ReadDone done;
        SpanId span = invalidSpan;
        std::uint64_t traceId = 0;
    };

    /** In-flight host write or trim command. */
    struct WriteCmd
    {
        DoneCallback done;
        /** Write payload, held by reference until it is programmed.
         *  Null for trims. */
        DataStore::Page payload;
        SpanId span = invalidSpan;
        std::uint64_t traceId = 0;
    };

    /** Kick garbage collection if watermarks demand it. */
    void maybeStartGc();

    /** Collect one victim row, then re-check watermarks. */
    void runGcPass();

    /**
     * Drain the layout manager's promotion queue: start the next
     * hot-cluster migration if none is in flight. Pages already
     * resident in a hot-stream row are pinned without a copy.
     */
    void maybeStartMigration();

    /** Copy one promoted page into the hot append stream. */
    void runMigration(Lpn lpn, Ppn old_ppn);

    /**
     * RECSSD_AUDIT: verify the L2P overlay and the per-row valid-page
     * bookkeeping still form a bijection (run after every GC erase).
     */
    void auditCheckMapping() const;

    EventQueue &eq_;
    FtlParams params_;
    FlashArray &flash_;
    MappingTable map_;
    BlockManager blocks_;
    PageCache cache_;
    std::string cpuTrackName_;
    std::string gcTrackName_;
    std::string layoutTrackName_;
    SerialResource cpu_;
    std::function<void(Lpn)> writeObserver_;
    /** Per-LPN remap epochs (point lookups only — see writeEpochOf). */
    std::unordered_map<Lpn, std::uint64_t> writeEpochs_;
    RecordPool<ReadCmd> readCmds_;
    RecordPool<WriteCmd> writeCmds_;  ///< writes and trims
    std::unique_ptr<LayoutManager> layout_;  ///< null under Log policy
    bool gcActive_ = false;
    bool migrActive_ = false;  ///< a hot-cluster migration is in flight
    bool audit_;  ///< RECSSD_AUDIT cached at construction

    Counter hostReads_;
    Counter hostWrites_;
    Counter hostTrims_;
    Counter gcRuns_;
    Counter gcPagesMigrated_;
    Counter fwPauses_;
};

}  // namespace recssd

#endif  // RECSSD_FTL_FTL_H
