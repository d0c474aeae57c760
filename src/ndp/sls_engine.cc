#include "src/ndp/sls_engine.h"

#include <algorithm>
#include <cstring>

#include "src/common/audit.h"
#include "src/common/logging.h"
#include "src/ndp/attr_codec.h"
#include "src/obs/tracer.h"
#include "src/obs/utilization.h"

namespace recssd
{

SlsEngine::SlsEngine(EventQueue &eq, const SlsEngineParams &params, Ftl &ftl,
                     const std::string &track_prefix)
    : eq_(eq), params_(params), ftl_(ftl),
      trackName_(track_prefix + "ndp.engine"), audit_(auditEnabled())
{
    if (params_.embeddingCacheBytes > 0) {
        cache_ = std::make_unique<EmbeddingCache>(
            params_.embeddingCacheBytes, params_.embeddingCacheVectorBytes);
        // Keep the cache coherent with in-place embedding updates:
        // a host write to a table page drops every vector cached
        // from it.
        ftl_.setWriteObserver([this](Lpn lpn) {
            std::uint64_t base = lpn - lpn % slsTableAlign;
            auto it = tableLayout_.find(base);
            if (it == tableLayout_.end())
                return;  // never served from this table; nothing cached
            std::uint64_t page = lpn - base;
            for (std::uint32_t slot = 0; slot < it->second; ++slot)
                cache_->invalidate(base, page * it->second + slot);
        });
    }
}

Lpn
SlsEngine::lpnOf(const Entry &entry, RowId row) const
{
    return entry.tableBase + row / entry.cfg.rowsPerPage;
}

std::uint32_t
SlsEngine::pageOffsetOf(const Entry &entry, RowId row) const
{
    return static_cast<std::uint32_t>(row % entry.cfg.rowsPerPage) *
           entry.cfg.vectorBytes();
}

void
SlsEngine::configWrite(const NvmeCommand &cmd, ConfigDone done)
{
    if (entries_.size() >= params_.maxEntries) {
        // Request buffer full: hold the command until an entry frees.
        waiting_.emplace_back(cmd, std::move(done));
        return;
    }
    admit(cmd, std::move(done));
}

void
SlsEngine::admit(const NvmeCommand &cmd, ConfigDone done)
{
    requests_.inc();
    auto addr = SlsAddress::decode(cmd.slba);
    auto entry = std::make_shared<Entry>();
    entry->key = cmd.slba;
    entry->tableBase = addr.tableBase;
    entry->traceId = cmd.traceId;
    // The controller stamps the command when the doorbell rings; the
    // payload DMA has completed by the time we are dispatched.
    entry->timing.submitted = cmd.submitTick ? cmd.submitTick : eq_.now();
    entry->timing.configArrived = eq_.now();

    bool ok = SlsConfig::deserialize(*cmd.payload, entry->cfg);
    recssd_assert(ok, "malformed SLS config payload");
    tableLayout_[entry->tableBase] = entry->cfg.rowsPerPage;
    entry->results.assign(
        std::size_t(entry->cfg.numResults) * entry->cfg.featureDim, 0.0f);

    recssd_assert(!entries_.contains(entry->key),
                  "duplicate in-flight SLS request id");
    entries_.emplace(entry->key, entry);
    rrOrder_.pushBack(entry);

    // The config write completes as soon as the entry is allocated;
    // processing continues asynchronously (Fig 7).
    done();
    processConfig(entry);
}

std::span<std::byte>
SlsEngine::gatherScratch(std::size_t bytes)
{
    if (gatherBuf_.size() < bytes)
        gatherBuf_.resize(bytes);
    return {gatherBuf_.data(), bytes};
}

void
SlsEngine::processConfig(const EntryPtr &entry)
{
    const SlsConfig &cfg = entry->cfg;
    Tick scan_cost = params_.configBaseCpu +
                     params_.configPerIndexCpu * cfg.pairs.size();
    SpanId scan_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        scan_span = tracer->begin(tracer->track(trackName_),
                                  "config_scan", Phase::NdpConfig,
                                  entry->traceId);
    }
    // The engine's utilization view: its work rides the firmware
    // core, so the wait/service split comes from that core's backlog
    // at enqueue time.
    Tick scan_enq = eq_.now();
    Tick scan_start = std::max(scan_enq, ftl_.cpu().freeAt());
    ftl_.cpu().acquire(scan_cost, [this, entry, scan_span, scan_enq,
                                   scan_start]() {
        if (UtilizationCollector *util = eq_.util())
            util->record(trackName_, scan_enq, scan_start, eq_.now());
        if (Tracer *tracer = tracerOf(eq_))
            tracer->end(scan_span);
        const SlsConfig &cfg = entry->cfg;
        std::span<std::byte> vec_buf = gatherScratch(cfg.vectorBytes());
        std::uint64_t cache_hits = 0;

        // One scan over the (sorted) pair list: group by flash page,
        // diverting embedding-cache hits to the fast path (step 2a).
        entry->pairIdx.reserve(cfg.pairs.size());
        PageWork current;
        for (std::uint32_t i = 0; i < cfg.pairs.size(); ++i) {
            const SlsPair &pair = cfg.pairs[i];
            if (cache_ && cache_->lookup(entry->tableBase, pair.inputId,
                                         vec_buf)) {
                float *res = entry->results.data() +
                             std::size_t(pair.resultId) * cfg.featureDim;
                for (std::uint32_t e = 0; e < cfg.featureDim; ++e)
                    res[e] += decodeAttr(vec_buf, e, cfg.attrBytes);
                ++cache_hits;
                continue;
            }
            Lpn lpn = lpnOf(*entry, pair.inputId);
            if (lpn != current.lpn) {
                if (current.lpn != invalidLpn)
                    entry->pages.push_back(current);
                current = PageWork{
                    lpn, static_cast<std::uint32_t>(entry->pairIdx.size()),
                    0, 0};
            }
            entry->pairIdx.push_back(i);
            ++current.count;
        }
        if (current.lpn != invalidLpn)
            entry->pages.push_back(current);

        entry->pagesOutstanding =
            static_cast<std::uint32_t>(entry->pages.size());

        // The entry cannot retire before it is configured, so the raw
        // pointer outlives the cache-hit accumulation.
        Entry *scanned = entry.get();
        auto finish = [this, scanned]() {
            scanned->configured = true;
            scanned->timing.configProcessed = eq_.now();
            if (scanned->pagesOutstanding == 0) {
                scanned->timing.flashDone = eq_.now();
                maybeComplete(*scanned);
            } else {
                pump();
            }
        };

        if (cache_hits > 0) {
            ftl_.cpu().acquire(params_.cacheHitAccumCpu * cache_hits,
                               std::move(finish));
        } else {
            finish();
        }
    });
}

void
SlsEngine::IssueRing::pushBack(EntryPtr entry)
{
    // The back of the rotation sits just before the front.
    ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                 std::move(entry));
    head_ = (head_ + 1) % ring_.size();
}

SlsEngine::Entry &
SlsEngine::IssueRing::rotate()
{
    Entry &front = *ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    return front;
}

void
SlsEngine::IssueRing::dropBack()
{
    std::size_t back = (head_ + ring_.size() - 1) % ring_.size();
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(back));
    if (back < head_)
        --head_;
    if (head_ == ring_.size())
        head_ = 0;
}

void
SlsEngine::pump()
{
    // Feed individual page requests from the in-flight SLS entries
    // into the flash queues, round-robin for fairness (§4.1 "Issuing
    // individual Flash requests").
    std::size_t entries_with_work = rrOrder_.size();
    while (outstandingFlash_ < params_.maxOutstandingFlash &&
           entries_with_work > 0) {
        Entry &entry = rrOrder_.rotate();
        if (entry.retired) {
            // Entry completed and was deallocated; drop it from the
            // rotation (the ring held its last reference).
            rrOrder_.dropBack();
            entries_with_work = rrOrder_.size();
            continue;
        }
        if (!entry.configured || entry.nextPage >= entry.pages.size()) {
            --entries_with_work;
            continue;
        }
        entries_with_work = rrOrder_.size();

        PageWork work = entry.pages[entry.nextPage++];
        // Snapshot the page's remap epoch at PPN-resolution time. All
        // three resolution paths below (hot tier, page cache, flash
        // read) defer the functional gather to a later firmware-core
        // grant; the consume-time check in translate() re-resolves the
        // mapping if it moved in between.
        work.epoch = ftl_.writeEpochOf(work.lpn);
        if (LayoutManager *layout = ftl_.layout()) {
            // NDP SLS page touches feed the same frequency tracker as
            // host reads — embedding gathers are what make rows hot.
            // The gather coalesces every row wanted from this page
            // into one flash read, so weight the access by row count.
            layout->onAccess(work.lpn, work.count);
            Ppn pinned;
            if (layout->tier().lookup(work.lpn, pinned)) {
                // Served from the hot-row DRAM tier; counted apart
                // from page-cache hits (disjoint accounting).
                hotTierHits_.inc();
                translate(entry, work, pinned);
                continue;
            }
        }
        Ppn cached;
        if (ftl_.cacheLookup(work.lpn, cached)) {
            // Step 3b: the page already sits in the FTL page cache;
            // process it directly without a flash access. A hot page
            // gets its tier pin here for free, same as on a flash
            // read.
            pageCacheHits_.inc();
            if (LayoutManager *layout = ftl_.layout()) {
                if (layout->isHot(work.lpn))
                    layout->pinFromRead(work.lpn, cached);
            }
            translate(entry, work, cached);
            continue;
        }
        Ppn ppn = ftl_.translate(work.lpn);
        recssd_assert(ppn != invalidPpn,
                      "SLS request touches an unmapped page");
        ++outstandingFlash_;
        flashPages_.inc();
        // The entry cannot retire while this page is outstanding, so
        // the raw pointer outlives the read.
        Entry *reader = &entry;
        ftl_.readPhysical(
            ppn,
            [this, reader, ppn, work](const PageView &view) {
                --outstandingFlash_;
                if (LayoutManager *layout = ftl_.layout()) {
                    // Free DRAM pin for a hot page: its bytes are in
                    // the controller buffer at read-DMA completion.
                    // Re-check the mapping — a write or GC move while
                    // the read was in flight makes this PPN stale.
                    if (layout->isHot(work.lpn) &&
                        ftl_.translate(work.lpn) == ppn)
                        layout->pinFromRead(work.lpn, ppn);
                }
                translate(*reader, work, view.ppn());
                pump();
            },
            entry.traceId);
    }
}

void
SlsEngine::translate(Entry &entry, const PageWork &work, Ppn ppn)
{
    std::uint64_t gathered =
        std::uint64_t(work.count) * entry.cfg.vectorBytes();
    Tick cost = params_.translateBaseCpu +
                params_.translatePerByteCpu * gathered;
    entry.timing.translateBusy += cost;

    // Functional extract + reduce happens when the firmware core gets
    // to it; the record keeps the page identity (store + PPN, which
    // stay stable) until then.
    Translation xlate;
    xlate.entry = &entry;
    xlate.work = work;
    xlate.ppn = ppn;
    if (Tracer *tracer = tracerOf(eq_)) {
        xlate.span = tracer->begin(tracer->track(trackName_), "translate",
                                   Phase::NdpTranslate, entry.traceId);
    }
    xlate.enqueued = eq_.now();
    xlate.started = std::max(xlate.enqueued, ftl_.cpu().freeAt());
    std::uint32_t op = translations_.put(xlate);
    ftl_.cpu().acquire(cost, [this, op]() { finishTranslate(op); });
}

void
SlsEngine::finishTranslate(std::uint32_t op)
{
    Translation xlate = translations_.take(op);
    Entry &entry = *xlate.entry;
    const PageWork &work = xlate.work;
    if (UtilizationCollector *util = eq_.util())
        util->record(trackName_, xlate.enqueued, xlate.started, eq_.now());
    if (Tracer *tracer = tracerOf(eq_))
        tracer->end(xlate.span);
    // Read-after-write fence: the logical page was remapped (host
    // rewrite, trim, GC or migration move) between PPN resolution and
    // this consume when its epoch moved. The stale PPN's bytes may
    // already be erased; re-point the view at the live mapping so the
    // gather sums the old-or-new row, never a torn one. Content at a
    // fixed PPN only ever changes via block erase (writes go to fresh
    // PPNs), so the re-resolved view is consistent.
    const bool remapped = !params_.disableWriteFence &&
                          ftl_.writeEpochOf(work.lpn) != work.epoch;
    Ppn ppn = xlate.ppn;
    if (remapped) {
        fenceRedirects_.inc();
        ppn = ftl_.translate(work.lpn);
    }
    PageView page(ftl_.flash().store(), ppn);
    if (audit_) {
        // Torn-sum invariant: consuming a PPN that is no longer the
        // live mapping is only sound while its bytes are intact (the
        // gather then sums the valid *old* row). If the stale page's
        // content is gone (GC erased its block) the sum would be
        // zeros — neither old nor new.
        Ppn live = ftl_.translate(work.lpn);
        recssd_assert(
            page.ppn() == live || live == invalidPpn ||
                ftl_.flash().store().covered(page.ppn()),
            "torn SLS gather: LPN %llu consumed erased PPN %llu "
            "(live mapping %llu)",
            static_cast<unsigned long long>(work.lpn),
            static_cast<unsigned long long>(page.ppn()),
            static_cast<unsigned long long>(live));
    }
    const SlsConfig &cfg = entry.cfg;
    std::span<std::byte> vec_buf = gatherScratch(cfg.vectorBytes());
    for (std::uint32_t k = work.first; k < work.first + work.count; ++k) {
        const SlsPair &pair = cfg.pairs[entry.pairIdx[k]];
        page.copyOut(pageOffsetOf(entry, pair.inputId), vec_buf);
        float *res = entry.results.data() +
                     std::size_t(pair.resultId) * cfg.featureDim;
        for (std::uint32_t e = 0; e < cfg.featureDim; ++e)
            res[e] += decodeAttr(vec_buf, e, cfg.attrBytes);
        if (cache_)
            cache_->insert(entry.tableBase, pair.inputId, vec_buf);
    }
    recssd_assert(entry.pagesOutstanding > 0,
                  "translation without outstanding pages");
    if (--entry.pagesOutstanding == 0 &&
        entry.nextPage >= entry.pages.size()) {
        entry.timing.flashDone = eq_.now();
        maybeComplete(entry);
    }
}

DataStore::Page
SlsEngine::packResults(const Entry &entry)
{
    const SlsConfig &cfg = entry.cfg;
    std::size_t raw = std::size_t(cfg.numResults) * cfg.featureDim * 4;
    // Results are packed into whole logical blocks (§4: "packing
    // useful data together into returned logical blocks").
    std::size_t page = ftl_.flash().params().pageSize;
    std::size_t padded = (raw + page - 1) / page * page;
    auto bytes = std::make_shared<std::vector<std::byte>>(padded,
                                                          std::byte{0});
    std::memcpy(bytes->data(), entry.results.data(), raw);
    return bytes;
}

void
SlsEngine::maybeComplete(Entry &entry)
{
    if (!entry.configured || entry.pagesOutstanding != 0 ||
        entry.nextPage < entry.pages.size()) {
        return;
    }
    if (!entry.readDone)
        return;  // waiting for the host's result-read command

    ResultDone done = std::move(entry.readDone);
    DataStore::Page bytes = packResults(entry);

    entry.timing.resultSent = eq_.now();
    lastTiming_ = entry.timing;
    // Deallocate the buffer entry. The ring may hold the last other
    // reference, so keep this one until the entry is no longer used.
    auto it = entries_.find(entry.key);
    EntryPtr owner = std::move(it->second);
    entries_.erase(it);
    owner->retired = true;

    // Admit a waiting config now that a buffer entry freed up.
    if (!waiting_.empty()) {
        auto [cmd, cb] = std::move(waiting_.front());
        waiting_.pop_front();
        admit(cmd, std::move(cb));
    }

    done(std::move(bytes));
}

void
SlsEngine::resultRead(const NvmeCommand &cmd, ResultDone done)
{
    auto it = entries_.find(cmd.slba);
    recssd_assert(it != entries_.end(),
                  "result read for unknown SLS request id");
    Entry &entry = *it->second;
    recssd_assert(!entry.readDone,
                  "duplicate result read for SLS request");
    entry.readDone = std::move(done);
    maybeComplete(entry);
}

}  // namespace recssd
