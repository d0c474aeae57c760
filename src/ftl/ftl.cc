#include "src/ftl/ftl.h"

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/common/audit.h"
#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace recssd
{

namespace
{

/** Open an FtlCpu span just before a firmware-core acquire (it then
 *  covers core queueing + service); invalidSpan when tracing is off. */
SpanId
beginCpuSpan(EventQueue &eq, const std::string &track, const char *name,
             std::uint64_t trace_id) RECSSD_SPAN_BEGIN
{
    Tracer *tracer = tracerOf(eq);
    if (!tracer)
        return invalidSpan;
    return tracer->begin(tracer->track(track), name, Phase::FtlCpu,
                         trace_id);
}

void
endSpan(EventQueue &eq, SpanId span) RECSSD_SPAN_END
{
    if (span == invalidSpan)
        return;
    if (Tracer *tracer = tracerOf(eq))
        tracer->end(span);
}

}  // namespace

Ftl::Ftl(EventQueue &eq, const FtlParams &params, FlashArray &flash,
         const std::string &track_prefix)
    : eq_(eq),
      params_(params),
      flash_(flash),
      blocks_(flash.params(), params),
      cache_(params.pageCachePages, params.pageCacheWays),
      cpuTrackName_(track_prefix + "ftl.cpu"),
      gcTrackName_(track_prefix + "ftl.gc"),
      layoutTrackName_(track_prefix + "ftl.layout"),
      cpu_(eq, cpuTrackName_),
      audit_(auditEnabled())
{
    if (params_.layout.policy == LayoutPolicy::Freq) {
        layout_ = std::make_unique<LayoutManager>(params_.layout);
        layout_->setMigrationKick([this]() { maybeStartMigration(); });
    }
}

void
Ftl::hostRead(Lpn lpn, ReadDone done, std::uint64_t trace_id)
{
    hostReads_.inc();
    SpanId span = beginCpuSpan(eq_, cpuTrackName_, "read_cmd", trace_id);
    std::uint32_t op = readCmds_.put(ReadCmd{std::move(done), span, trace_id});
    cpu_.acquire(params_.readCmdCpu, [this, lpn, op]() {
        const ReadCmd &cmd = readCmds_[op];
        endSpan(eq_, cmd.span);
        if (layout_) {
            layout_->onAccess(lpn);
            Ppn pinned;
            if (layout_->tier().lookup(lpn, pinned)) {
                // Pinned in the hot-row DRAM tier: served without
                // probing the page cache, so hot-tier hits and
                // page-cache hits/misses stay disjoint counts.
                readCmds_.take(op).done(PageView(flash_.store(), pinned));
                return;
            }
        }
        Ppn cached;
        if (cache_.lookup(lpn, cached)) {
            // Served straight from controller DRAM. A hot page gets
            // its tier pin here for free, same as on a flash read.
            if (layout_ && layout_->isHot(lpn))
                layout_->pinFromRead(lpn, cached);
            readCmds_.take(op).done(PageView(flash_.store(), cached));
            return;
        }
        Ppn ppn = map_.lookup(lpn);
        if (ppn == invalidPpn) {
            // Unwritten page: a real drive returns zeroes without
            // touching flash.
            readCmds_.take(op).done(PageView(flash_.store(), invalidPpn));
            return;
        }
        flash_.readPage(
            ppn,
            [this, lpn, ppn, op](const PageView &view) {
                // Re-check the mapping — a write or GC move while the
                // read was in flight makes this PPN stale, and a stale
                // cache entry would resurrect a pointer the write path
                // already invalidated (later SLS gathers would consume
                // it with a stable epoch, defeating the write fence).
                bool current = map_.lookup(lpn) == ppn;
                if (current)
                    cache_.insert(lpn, ppn);
                // Free DRAM pin: the page sits in the controller
                // buffer at read-DMA completion anyway.
                if (layout_ && layout_->isHot(lpn) && current)
                    layout_->pinFromRead(lpn, ppn);
                readCmds_.take(op).done(view);
            },
            cmd.traceId);
    });
}

void
Ftl::hostWrite(Lpn lpn, DataStore::Page data, DoneCallback done,
               std::uint64_t trace_id)
{
    hostWrites_.inc();
    SpanId span = beginCpuSpan(eq_, cpuTrackName_, "write_cmd", trace_id);
    std::uint32_t op = writeCmds_.put(
        WriteCmd{std::move(done), std::move(data), span, trace_id});
    cpu_.acquire(params_.writeCmdCpu, [this, lpn, op]() {
        WriteCmd &cmd = writeCmds_[op];
        endSpan(eq_, cmd.span);
        Ppn old = map_.lookup(lpn);
        BlockManager::Stream stream = layout_ && layout_->isHot(lpn)
                                          ? BlockManager::Stream::Hot
                                          : BlockManager::Stream::Cold;
        Ppn ppn = blocks_.allocatePage(lpn, stream);
        recssd_assert(ppn != invalidPpn, "drive out of space");
        map_.set(lpn, ppn);
        bumpWriteEpoch(lpn);
        // Observers (the NDP embedding cache) invalidate here, at the
        // instant the mapping/epoch changes — not at command entry.
        // Firing early would let a gather that consumed the old page
        // re-insert its value *after* the invalidation, resurrecting
        // a vector the write already superseded.
        if (writeObserver_)
            writeObserver_(lpn);
        if (old != invalidPpn)
            blocks_.invalidate(old);
        cache_.invalidate(lpn);
        if (layout_)
            layout_->onDataInvalidated(lpn);
        flash_.writePage(ppn, std::move(cmd.payload),
                         [this, lpn, ppn, op]() {
                             // A newer write to the same LPN may have
                             // remapped it during this program; caching
                             // or hot-tier-pinning the superseded PPN
                             // would hand later gathers a stale page
                             // with a stable epoch.
                             if (map_.lookup(lpn) == ppn) {
                                 cache_.insert(lpn, ppn);
                                 if (layout_)
                                     layout_->onRewrite(lpn, ppn);
                             }
                             WriteCmd done_cmd = writeCmds_.take(op);
                             if (done_cmd.done)
                                 done_cmd.done();
                             maybeStartGc();
                         },
                         cmd.traceId);
    });
}

void
Ftl::hostTrim(Lpn lpn, DoneCallback done, std::uint64_t trace_id)
{
    hostTrims_.inc();
    SpanId span = beginCpuSpan(eq_, cpuTrackName_, "trim_cmd", trace_id);
    std::uint32_t op =
        writeCmds_.put(WriteCmd{std::move(done), {}, span, trace_id});
    cpu_.acquire(params_.trimCmdCpu, [this, lpn, op]() {
        WriteCmd cmd = writeCmds_.take(op);
        endSpan(eq_, cmd.span);
        // Only overlay mappings can be dropped; a region page with no
        // overlay simply has nothing to deallocate.
        Ppn old = map_.lookup(lpn);
        map_.unset(lpn);
        bumpWriteEpoch(lpn);
        // Same ordering rule as hostWrite: observers fire at the
        // mapping change so deferred gather-completion inserts cannot
        // outlive the invalidation.
        if (writeObserver_)
            writeObserver_(lpn);
        if (old != invalidPpn && map_.lookup(lpn) != old) {
            // The overlay (not a region) held the page: reclaim it.
            blocks_.invalidate(old);
        }
        cache_.invalidate(lpn);
        if (layout_)
            layout_->onDataInvalidated(lpn);
        if (cmd.done)
            cmd.done();
        maybeStartGc();
    });
}

void
Ftl::bulkInstall(Lpn lpn_start, std::uint64_t pages, DataStore::Generator gen)
{
    Ppn ppn_start = blocks_.allocateRegion(pages);
    map_.installRegion(lpn_start, ppn_start, pages);
    flash_.store().registerSynthetic(ppn_start, pages, std::move(gen));
}

void
Ftl::injectFirmwarePause(Tick duration)
{
    fwPauses_.inc();
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        span = tracer->begin(tracer->track(cpuTrackName_), "fw_pause",
                             Phase::FtlCpu);
    }
    cpu_.acquire(duration, [this, span]() {
        if (Tracer *tracer = tracerOf(eq_))
            tracer->end(span);
    });
}

void
Ftl::auditCheckMapping() const
{
    // Map updates (allocate + set + invalidate) happen atomically
    // inside single events, so the state is consistent whenever this
    // runs.  The overlay walk is hash-ordered; everything below folds
    // into order-independent sets and counts.
    std::unordered_set<Ppn> seen;  // membership only, never iterated
    std::vector<std::uint32_t> perRow(blocks_.numRows(), 0);
    map_.forEachOverlay([&](Lpn lpn, Ppn ppn) {
        recssd_assert(seen.insert(ppn).second,
                      "audit: PPN %llu mapped twice in the L2P overlay "
                      "(second LPN %llu)",
                      static_cast<unsigned long long>(ppn),
                      static_cast<unsigned long long>(lpn));
        std::uint64_t row = blocks_.rowOf(ppn);
        BlockManager::RowState st = blocks_.rowState(row);
        recssd_assert(st == BlockManager::RowState::Active ||
                          st == BlockManager::RowState::Sealed,
                      "audit: LPN %llu maps into row %llu, which is "
                      "free/region (state %d)",
                      static_cast<unsigned long long>(lpn),
                      static_cast<unsigned long long>(row),
                      static_cast<int>(st));
        ++perRow[row];
    });
    for (std::uint64_t row = 0; row < blocks_.numRows(); ++row) {
        if (blocks_.rowState(row) == BlockManager::RowState::Region)
            continue;
        recssd_assert(perRow[row] == blocks_.rowValidCount(row),
                      "audit: row %llu has %u overlay entries but "
                      "validCount %u",
                      static_cast<unsigned long long>(row),
                      static_cast<unsigned>(perRow[row]),
                      static_cast<unsigned>(blocks_.rowValidCount(row)));
    }
}

void
Ftl::maybeStartGc()
{
    if (gcActive_ || !blocks_.needsGc())
        return;
    gcActive_ = true;
    runGcPass();
}

void
Ftl::runGcPass()
{
    std::uint64_t victim = blocks_.pickGcVictim();
    if (victim == UINT64_MAX) {
        gcActive_ = false;
        return;
    }
    gcRuns_.inc();
    if (Tracer *tracer = tracerOf(eq_))
        tracer->instant(tracer->track(gcTrackName_), "gc_pass");

    auto valid = std::make_shared<std::vector<std::pair<Lpn, Ppn>>>(
        blocks_.validPagesIn(victim));
    auto remaining = std::make_shared<std::size_t>(valid->size());

    auto finish_row = [this, victim]() {
        // Erase every block in the row; dies erase in parallel, so
        // charge one erase per die through the flash model.
        const FlashParams &fp = flash_.params();
        unsigned dies = fp.numChannels * fp.diesPerChannel;
        auto erases_left = std::make_shared<unsigned>(dies);
        std::uint64_t row_start = victim * blocks_.pagesPerRow();
        for (unsigned d = 0; d < dies; ++d) {
            // One PPN per die within the row selects its block.
            Ppn ppn = row_start + d;
            flash_.eraseBlock(ppn, [this, erases_left, victim]() {
                if (--*erases_left == 0) {
                    blocks_.onRowErased(victim);
                    if (audit_)
                        auditCheckMapping();
                    if (blocks_.wantsMoreGc())
                        runGcPass();
                    else
                        gcActive_ = false;
                }
            });
        }
    };

    if (valid->empty()) {
        finish_row();
        return;
    }

    for (auto [lpn, ppn] : *valid) {
        flash_.readPage(ppn, [this, lpn, old_ppn = ppn, remaining,
                              finish_row](const PageView &view) {
            SpanId gc_span = invalidSpan;
            if (Tracer *tracer = tracerOf(eq_)) {
                gc_span = tracer->begin(tracer->track(gcTrackName_),
                                        "gc_page", Phase::FtlCpu);
            }
            cpu_.acquire(params_.gcPerPageCpu, [this, lpn, old_ppn, view,
                                                gc_span, remaining,
                                                finish_row]() {
                endSpan(eq_, gc_span);
                // Skip pages rewritten by the host while GC was in
                // flight; their data already moved.
                if (map_.lookup(lpn) == old_ppn) {
                    // The relocated page shares the source's buffer;
                    // erasing the source drops only its reference.
                    DataStore::Page page = view.sharePage();
                    // Re-pack by hotness: GC folds cold rows back into
                    // the cold stream and keeps hot pages clustered.
                    BlockManager::Stream stream =
                        layout_ && layout_->isHot(lpn)
                            ? BlockManager::Stream::Hot
                            : BlockManager::Stream::Cold;
                    Ppn fresh = blocks_.allocatePage(lpn, stream);
                    recssd_assert(fresh != invalidPpn,
                                  "GC found no destination space");
                    map_.set(lpn, fresh);
                    bumpWriteEpoch(lpn);
                    blocks_.invalidate(old_ppn);
                    cache_.invalidate(lpn);
                    if (layout_)
                        layout_->onPhysicalMove(lpn, fresh);
                    gcPagesMigrated_.inc();
                    flash_.writePage(
                        fresh, std::move(page), [remaining, finish_row]() {
                            if (--*remaining == 0)
                                finish_row();
                        });
                } else if (--*remaining == 0) {
                    finish_row();
                }
            });
        });
    }
}

void
Ftl::maybeStartMigration()
{
    if (!layout_ || migrActive_)
        return;
    while (true) {
        Lpn lpn = layout_->popPendingMigration();
        if (lpn == invalidLpn)
            return;
        Ppn old = map_.lookup(lpn);
        if (old == invalidPpn)
            continue;  // trimmed while queued
        std::uint64_t row = blocks_.rowOf(old);
        if (blocks_.rowState(row) != BlockManager::RowState::Region &&
            blocks_.rowStream(row) == BlockManager::Stream::Hot) {
            // Already physically clustered (e.g. rewritten through the
            // hot stream, or relocated there by GC, while queued): pin
            // without copying.
            layout_->tier().insert(lpn, old);
            continue;
        }
        migrActive_ = true;
        runMigration(lpn, old);
        return;
    }
}

void
Ftl::runMigration(Lpn lpn, Ppn old_ppn)
{
    auto finish = [this]() {
        migrActive_ = false;
        maybeStartMigration();
    };
    flash_.readPage(old_ppn, [this, lpn, old_ppn,
                              finish](const PageView &view) {
        SpanId span = invalidSpan;
        if (Tracer *tracer = tracerOf(eq_)) {
            span = tracer->begin(tracer->track(layoutTrackName_),
                                 "hot_migrate", Phase::FtlCpu);
        }
        cpu_.acquire(params_.layout.migratePerPageCpu,
                     [this, lpn, old_ppn, view, span, finish]() {
            endSpan(eq_, span);
            // The page may have been rewritten, trimmed or demoted
            // while the read was in flight; migrating then would
            // clobber newer state or undo a demotion.
            if (map_.lookup(lpn) != old_ppn || !layout_->isHot(lpn)) {
                finish();
                return;
            }
            DataStore::Page page = view.sharePage();
            Ppn fresh_ppn = blocks_.allocatePage(lpn,
                                                 BlockManager::Stream::Hot);
            if (fresh_ppn == invalidPpn) {
                // Space exhausted: leave the page where it is. It can
                // still be pinned on a later rewrite.
                finish();
                return;
            }
            map_.set(lpn, fresh_ppn);
            bumpWriteEpoch(lpn);
            blocks_.invalidate(old_ppn);
            cache_.invalidate(lpn);
            // Any read-time pin still references old_ppn, which GC
            // may now erase; drop it and re-pin at the fresh PPN once
            // the copy lands.
            layout_->onDataInvalidated(lpn);
            flash_.writePage(fresh_ppn, std::move(page),
                             [this, lpn, fresh_ppn, finish]() {
                // A host write during the program supersedes the
                // migrated copy; pinning it would serve stale data.
                if (map_.lookup(lpn) == fresh_ppn)
                    layout_->onMigrated(lpn, fresh_ppn);
                if (audit_)
                    auditCheckMapping();
                maybeStartGc();
                finish();
            });
        });
    });
}

}  // namespace recssd
