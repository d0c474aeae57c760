/**
 * @file
 * The RecSSD NDP SLS engine — the paper's core contribution (§4).
 *
 * Lives inside the FTL firmware. A config-write NVMe command allocates
 * an entry in the pending-SLS-request buffer; the firmware core scans
 * the (input, result) pair list, groups it by flash page, takes the
 * embedding-cache fast path where possible, and feeds the remaining
 * page reads into the flash array in round-robin order across all
 * in-flight SLS entries (the added scheduling layer of §4.1). Each
 * completed page read triggers the Translation step on the firmware
 * core: extract the needed vectors from the 16KB page and accumulate
 * them into the entry's result scratchpad. A result-read NVMe command
 * returns the packed result pages once everything has landed.
 */

#ifndef RECSSD_NDP_SLS_ENGINE_H
#define RECSSD_NDP_SLS_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/stats.h"
#include "src/ftl/ftl.h"
#include "src/ndp/embedding_cache.h"
#include "src/ndp/sls_config.h"
#include "src/nvme/host_controller.h"

namespace recssd
{

struct SlsEngineParams
{
    /** Fixed firmware cost to set up one SLS request entry. */
    Tick configBaseCpu = 10 * usec;
    /** Firmware cost per (input, result) pair during the config scan. */
    Tick configPerIndexCpu = 350 * nsec;
    /** Fixed Translation cost per processed flash page. */
    Tick translateBaseCpu = 2200 * nsec;
    /** Translation cost per gathered byte (extract + accumulate). */
    Tick translatePerByteCpu = 40 * nsec;  // on the 1GHz A9
    /** Firmware cost to accumulate one embedding-cache hit. */
    Tick cacheHitAccumCpu = 300 * nsec;

    /** Pending-SLS-request buffer entries (§4.1 "Data-structures"). */
    unsigned maxEntries = 16;
    /** Page reads the scheduling layer keeps in flight at once. */
    unsigned maxOutstandingFlash = 64;

    /** SSD-side embedding cache budget; 0 disables the cache. */
    std::uint64_t embeddingCacheBytes = 0;
    /** Slot size of the embedding cache. */
    std::uint32_t embeddingCacheVectorBytes = 256;

    /**
     * Test-only hook: disable the consume-time remap fence so the
     * torn-sum RECSSD_AUDIT invariant and the no-torn-sum property
     * test can prove they catch the bug the fence prevents. Never set
     * outside tests.
     */
    bool disableWriteFence = false;
};

/** Per-request FTL-side time breakdown, as reported in Fig 8. */
struct SlsTiming
{
    Tick submitted = 0;        ///< config write accepted by controller
    Tick configArrived = 0;    ///< config DMA complete (step 1a done)
    Tick configProcessed = 0;  ///< status structures populated (step 2)
    Tick flashDone = 0;        ///< last page translated (steps 3-5)
    Tick resultSent = 0;       ///< result DMA complete (step 6)
    Tick translateBusy = 0;    ///< firmware core time spent translating

    Tick configWriteTime() const { return configArrived - submitted; }
    Tick configProcessTime() const { return configProcessed - configArrived; }
    Tick translationTime() const { return translateBusy; }
    Tick
    flashReadTime() const
    {
        Tick span = flashDone - configProcessed;
        return span > translateBusy ? span - translateBusy : 0;
    }
    Tick resultReadTime() const { return resultSent - flashDone; }
};

class SlsEngine : public SlsHandler
{
  public:
    /** `track_prefix` namespaces the engine's trace track (multi-SSD
     *  systems pass "ssd<d>." so device spans stay separable). */
    SlsEngine(EventQueue &eq, const SlsEngineParams &params, Ftl &ftl,
              const std::string &track_prefix = "");

    /** @{ SlsHandler (called by the NVMe host controller). */
    void configWrite(const NvmeCommand &cmd, ConfigDone done) override;
    void resultRead(const NvmeCommand &cmd, ResultDone done) override;
    /** @} */

    /** Time breakdown of the most recently completed request. */
    const SlsTiming &lastTiming() const { return lastTiming_; }

    /** The optional SSD-side embedding cache (null when disabled). */
    EmbeddingCache *embeddingCache() { return cache_.get(); }

    const SlsEngineParams &params() const { return params_; }

    /** @{ Stats. */
    std::uint64_t requests() const { return requests_.value(); }
    std::uint64_t flashPagesRead() const { return flashPages_.value(); }
    std::uint64_t pageCacheHits() const { return pageCacheHits_.value(); }
    /** SLS pages served from the hot-row DRAM tier (freq layout). */
    std::uint64_t hotTierHits() const { return hotTierHits_.value(); }
    /**
     * Gathers whose deferred translation was re-pointed at the live
     * mapping because the page was remapped (host rewrite, trim, GC or
     * migration move) after its PPN was resolved — the read-after-
     * write fence engaging.
     */
    std::uint64_t fenceRedirects() const { return fenceRedirects_.value(); }
    std::uint64_t embedCacheHits() const
    {
        return cache_ ? cache_->hits() : 0;
    }
    /** @} */

  private:
    /** Work for one flash page: which pairs gather from it. */
    struct PageWork
    {
        Lpn lpn = invalidLpn;
        /** The page's pairs are Entry::pairIdx[first, first+count). */
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        /** The page's FTL remap epoch when its PPN was resolved; a
         *  mismatch at consume time means the mapping moved and the
         *  captured PPN may hold erased bytes (see translate). */
        std::uint64_t epoch = 0;
    };

    /** One pending-SLS-request buffer entry (Fig 7, red structures). */
    struct Entry
    {
        std::uint64_t key;        ///< tableBase + requestId
        std::uint64_t tableBase;
        std::uint64_t traceId = 0;  ///< owning trace request (0 = none)
        SlsConfig cfg;            ///< element 1: input config
        /* element 2: status */
        bool configured = false;
        /** Completed and deallocated; the issue ring drops it when
         *  its rotation next reaches it. */
        bool retired = false;
        std::uint32_t pagesOutstanding = 0;
        /* element 3: pending flash page requests */
        std::vector<PageWork> pages;
        /** Pair indices of all pages, grouped page by page. */
        std::vector<std::uint32_t> pairIdx;
        std::size_t nextPage = 0;
        /* element 4: pending host page request */
        ResultDone readDone;
        /* element 5: result scratchpad */
        std::vector<float> results;

        SlsTiming timing;
    };

    using EntryPtr = std::shared_ptr<Entry>;

    /**
     * Round-robin issue order over the in-flight entries (§4.1). A
     * vector rotated through a head index, so a rotation step neither
     * allocates nor looks anything up.
     */
    class IssueRing
    {
      public:
        std::size_t size() const { return ring_.size(); }

        /** Append at the back of the rotation. */
        void pushBack(EntryPtr entry);

        /** Move the front entry to the back; @return it. */
        Entry &rotate();

        /** Remove the entry the last rotate() moved to the back. */
        void dropBack();

      private:
        std::vector<EntryPtr> ring_;
        std::size_t head_ = 0;  ///< index of the front entry
    };

    /** A page waiting for (then running on) the firmware core's
     *  Translation step. */
    struct Translation
    {
        Entry *entry = nullptr;
        PageWork work;
        Ppn ppn = invalidPpn;
        SpanId span = invalidSpan;
        Tick enqueued = 0;  ///< utilization view: enqueue tick
        Tick started = 0;   ///< utilization view: service start
    };

    /** Admit a config into the request buffer (or the wait queue). */
    void admit(const NvmeCommand &cmd, ConfigDone done);

    /** Config scan on the firmware core (step 2). */
    void processConfig(const EntryPtr &entry);

    /** Round-robin page issue across in-flight entries (step 3a). */
    void pump();

    /** Translation for one page resolved to `ppn` (steps 4-5). */
    void translate(Entry &entry, const PageWork &work, Ppn ppn);

    /** The Translation step's body, once the firmware core runs it. */
    void finishTranslate(std::uint32_t op);

    /** Mark done, satisfy a waiting result read (step 6). */
    void maybeComplete(Entry &entry);

    /** Gather scratch of `bytes` bytes, reused across pages. */
    std::span<std::byte> gatherScratch(std::size_t bytes);

    /** Copy the scratchpad's result vectors into the result bytes. */
    DataStore::Page packResults(const Entry &entry);

    Lpn lpnOf(const Entry &entry, RowId row) const;
    std::uint32_t pageOffsetOf(const Entry &entry, RowId row) const;

    EventQueue &eq_;
    SlsEngineParams params_;
    Ftl &ftl_;
    std::unique_ptr<EmbeddingCache> cache_;

    /** Table layout learned from configs (tableBase -> rowsPerPage),
     *  used to map host writes back to cached rows. */
    std::unordered_map<std::uint64_t, std::uint32_t> tableLayout_;

    std::unordered_map<std::uint64_t, EntryPtr> entries_;
    IssueRing rrOrder_;
    RecordPool<Translation> translations_;
    std::vector<std::byte> gatherBuf_;
    std::deque<std::pair<NvmeCommand, ConfigDone>> waiting_;
    unsigned outstandingFlash_ = 0;

    std::string trackName_;
    SlsTiming lastTiming_;
    bool audit_;  ///< RECSSD_AUDIT cached at construction

    Counter requests_;
    Counter flashPages_;
    Counter pageCacheHits_;
    Counter hotTierHits_;
    Counter fenceRedirects_;
};

}  // namespace recssd

#endif  // RECSSD_NDP_SLS_ENGINE_H
