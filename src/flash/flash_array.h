/**
 * @file
 * Timed model of the NAND flash array.
 *
 * Each channel bus and each die is a FIFO `SerialResource`. A page
 * read occupies: channel (command) -> die (tR) -> channel (data
 * transfer). A program occupies: channel (command + data transfer) ->
 * die (tPROG). An erase occupies the die for tERASE. With the default
 * Cosmos+ parameters this yields ~10K page reads/s per channel and
 * ~1.36GB/s sequential read across 8 channels, matching §5.
 *
 * Data is functional: reads hand back a `PageView` that lazily copies
 * bytes out of the `DataStore`, so full 16KB pages are never
 * materialized unless someone actually wants all of them.
 */

#ifndef RECSSD_FLASH_FLASH_ARRAY_H
#define RECSSD_FLASH_FLASH_ARRAY_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/random.h"
#include "src/common/resource.h"
#include "src/common/stats.h"
#include "src/flash/data_store.h"
#include "src/flash/flash_params.h"
#include "src/obs/phase.h"
#include "src/obs/tracer.h"

namespace recssd
{

/** Lazy, read-only view of one flash page's content. */
class PageView
{
  public:
    PageView(const DataStore &store, Ppn ppn) : store_(&store), ppn_(ppn) {}
    /** An unbound view; assign a real one before copying out. */
    PageView() = default;

    /** Copy bytes [offset, offset+out.size()) of the page into out. */
    void
    copyOut(std::size_t offset, std::span<std::byte> out) const
    {
        store_->read(ppn_, offset, out);
    }

    /** @{ The whole page: a private copy to modify (DataStore::copyPage)
     *  or an immutable buffer to store elsewhere (DataStore::sharePage). */
    std::shared_ptr<std::vector<std::byte>>
    copyPage() const
    {
        return store_->copyPage(ppn_);
    }
    DataStore::Page sharePage() const { return store_->sharePage(ppn_); }
    /** @} */

    Ppn ppn() const { return ppn_; }

  private:
    const DataStore *store_ = nullptr;
    Ppn ppn_ = invalidPpn;
};

/** The flash array: timing plus functional data movement. */
class FlashArray
{
  public:
    using ReadCallback = InlineFunction<void(const PageView &)>;
    using DoneCallback = EventQueue::Callback;

    /** `track_prefix` namespaces the per-channel trace tracks (multi-
     *  SSD systems pass "ssd<d>." so device spans stay separable). */
    FlashArray(EventQueue &eq, const FlashParams &params, DataStore &store,
               const std::string &track_prefix = "");

    const FlashParams &params() const { return params_; }
    DataStore &store() { return store_; }

    /**
     * Read a physical page. The callback fires when the data has
     * crossed the channel bus into controller DRAM. `trace_id` tags
     * the channel/die span with the owning request. The callback is a
     * deferred body: a PPN captured into it is an issue-time snapshot
     * that GC or a racing write can remap before completion.
     */
    void readPage(Ppn ppn, ReadCallback done, std::uint64_t trace_id = 0)
        RECSSD_DEFERS_CALLBACK;

    /** Program a physical page with the given content. The page keeps
     *  `data` by reference (no copy); it must not change afterwards. */
    void writePage(Ppn ppn, DataStore::Page data, DoneCallback done,
                   std::uint64_t trace_id = 0) RECSSD_DEFERS_CALLBACK;

    /** Erase a whole block (identified by any PPN inside it). */
    void eraseBlock(Ppn any_ppn_in_block, DoneCallback done)
        RECSSD_DEFERS_CALLBACK;

    /** Earliest tick at which the given page's channel+die are free. */
    Tick backlogFor(Ppn ppn) const;

    /** @{ Fault-injection hooks (`src/fault`). */

    /**
     * Occupy one die for `duration` starting now (behind whatever is
     * already queued on it) — a die-level retry storm or suspended
     * program; reads to that die queue up behind the stall.
     */
    void stallDie(unsigned ch, unsigned die, Tick duration);

    /**
     * Until `until`, every array read started takes `factor`x its
     * nominal tR (retries scale too). Overlapping windows take the
     * largest factor.
     */
    void addReadInflation(Tick until, double factor);
    /** @} */

    /** @{ Stats. */
    std::uint64_t pageReads() const { return pageReads_.value(); }
    std::uint64_t pageWrites() const { return pageWrites_.value(); }
    std::uint64_t blockErases() const { return blockErases_.value(); }
    std::uint64_t readRetries() const { return readRetries_.value(); }
    std::uint64_t inflatedReads() const { return inflatedReads_.value(); }
    Tick channelBusyTime(unsigned ch) const;
    /** @} */

  private:
    SerialResource &channel(unsigned ch) { return *channels_[ch]; }
    SerialResource &die(unsigned ch, unsigned d)
    {
        return *dies_[ch * params_.diesPerChannel + d];
    }

    /** Array-read occupancy including injected read retries. */
    Tick arrayReadTime();

    /** Record die-track wait/busy spans for an op about to occupy the
     *  die (no-op when tracing is off). */
    void emitDieSpans(unsigned ch, unsigned d, Phase phase, Tick service,
                      std::uint64_t trace_id);

    /** In-flight state of one page read across its three phases. */
    struct ReadOp
    {
        ReadCallback done;
        Ppn ppn = invalidPpn;
        SpanId span = invalidSpan;
        std::uint64_t traceId = 0;
        unsigned channel = 0;
        unsigned die = 0;
    };

    /** In-flight state of one program or erase. */
    struct DoneOp
    {
        DoneCallback done;
        SpanId span = invalidSpan;
        std::uint64_t traceId = 0;
        unsigned channel = 0;
        unsigned die = 0;
    };

    /** @{ Read phases 2 (tR on the die), 3 (transfer) and completion. */
    void readArray(std::uint32_t op);
    void readTransfer(std::uint32_t op);
    void finishRead(std::uint32_t op);
    /** @} */

    /** One injected latency-inflation window. */
    struct InflationWindow
    {
        Tick until;
        double factor;
    };

    EventQueue &eq_;
    FlashParams params_;
    DataStore &store_;
    Rng retryRng_;
    std::vector<std::unique_ptr<SerialResource>> channels_;
    std::vector<std::unique_ptr<SerialResource>> dies_;
    /** Pre-built trace track names, one per channel. */
    std::vector<std::string> channelTrackNames_;
    /** Pre-built trace track names, one per die (parallel to dies_). */
    std::vector<std::string> dieTrackNames_;
    /** Active/pending inflation windows; empty on healthy devices. */
    std::vector<InflationWindow> inflations_;
    RecordPool<ReadOp> reads_;
    RecordPool<DoneOp> programs_;  ///< programs and erases

    Counter pageReads_;
    Counter pageWrites_;
    Counter blockErases_;
    Counter readRetries_;
    Counter inflatedReads_;
};

}  // namespace recssd

#endif  // RECSSD_FLASH_FLASH_ARRAY_H
