/**
 * @file
 * Consistency properties of online embedding updates.
 *
 * The write path's contract, locked down as executable properties:
 *
 *  - Read-after-write visibility: a completed row update is seen
 *    bit-identically by the host-DRAM, baseline-SSD and NDP backends.
 *  - Old-or-new: an SLS gather racing an in-flight page write (and
 *    the GC relocations/erases it triggers) returns either the old
 *    vector or the new one — never a torn mixture or zero-fill. The
 *    race sweep drives 10k+ seeded interleavings (random write
 *    offsets, firmware pauses stretching the gather's read window,
 *    enough write pressure to keep GC running); a deterministic
 *    forced-eviction recipe then constructs the exact
 *    resolve/remap/erase/consume interleaving and proves the fence
 *    is load-bearing: with the test-only `disableWriteFence` knob
 *    the recipe sums the erased page, and under RECSSD_AUDIT the
 *    engine's torn-gather invariant catches it.
 *  - Replica convergence: with 2-way replication every replica
 *    serves the updated vector after the fan-out write.
 *  - Host-cache coherence: after a mixed serve on the baseline backend,
 *    the host LRU returns exactly what the SSD holds for every row.
 *  - Determinism: mixed read-write serve runs are a pure function of
 *    their seed (byte-identical stats JSON), audit-on runs included;
 *    a zero-rate update spec leaves artifacts byte-identical to a
 *    config that never mentions updates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/embedding/baseline_backend.h"
#include "src/embedding/dram_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/embedding/table_update.h"
#include "src/flash/flash_array.h"
#include "src/ftl/ftl.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

/** Scoped RECSSD_AUDIT=1 (components cache it at construction). */
class ScopedAudit
{
  public:
    ScopedAudit() { ::setenv("RECSSD_AUDIT", "1", 1); }
    ~ScopedAudit() { ::unsetenv("RECSSD_AUDIT"); }
};

/** Clears RECSSD_AUDIT for its lifetime; restores the ambient value. */
class ScopedNoAudit
{
  public:
    ScopedNoAudit()
    {
        if (const char *value = std::getenv("RECSSD_AUDIT"))
            saved_ = value;
        ::unsetenv("RECSSD_AUDIT");
    }
    ~ScopedNoAudit()
    {
        if (saved_)
            ::setenv("RECSSD_AUDIT", saved_->c_str(), 1);
    }

  private:
    std::optional<std::string> saved_;
};

/** Row content at a given update version (0 = pristine). */
std::vector<float>
versionVector(const EmbeddingTableDesc &table, RowId row,
              std::uint64_t version)
{
    return synthetic::updatedVector(table, row, version);
}

// ---------------------------------------------------------------------------
// Read-after-write visibility across backends.

TEST(UpdateConsistency, VisibilityAcrossBackends)
{
    SystemConfig cfg = test::smallSystem();
    System sys(cfg);
    auto table = sys.installTable(10'000, 8);

    DramSlsBackend dram(sys.eq(), sys.cpu());
    BaselineSsdSlsBackend base(sys.eq(), sys.cpu(), sys.driver(),
                               sys.queues(),
                               BaselineSsdSlsBackend::Options{});
    NdpSlsBackend ndp(sys.eq(), sys.cpu(), sys.driver(), sys.queues(),
                      NdpSlsBackend::Options{});

    // Commit version-3 content for two rows through the block
    // interface, and mirror it into the DRAM copy.
    for (RowId row : {RowId(42), RowId(999)}) {
        std::vector<float> fresh = versionVector(table, row, 3);
        bool done = false;
        updateRow(sys.driver(), sys.queues(), table, row, fresh,
                  [&]() { done = true; });
        sys.run();
        ASSERT_TRUE(done);
        dram.applyUpdate(table, row, fresh);
    }

    // A batch mixing updated and pristine rows must be bit-identical
    // across all three backends.
    SlsOp op;
    op.table = &table;
    op.indices = {{42, 7}, {999}, {7, 8, 9}};
    std::vector<SlsResult> results;
    for (SlsBackend *backend :
         std::initializer_list<SlsBackend *>{&dram, &base, &ndp}) {
        SlsResult out;
        backend->run(op, [&](SlsResult r) { out = std::move(r); });
        sys.run();
        results.push_back(std::move(out));
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);

    // And equal to the functional expectation built from versions.
    std::vector<float> expect(3 * table.dim, 0.0f);
    for (std::uint32_t e = 0; e < table.dim; ++e) {
        expect[e] = versionVector(table, 42, 3)[e] +
                    versionVector(table, 7, 0)[e];
        expect[table.dim + e] = versionVector(table, 999, 3)[e];
        expect[2 * table.dim + e] = versionVector(table, 7, 0)[e] +
                                    versionVector(table, 8, 0)[e] +
                                    versionVector(table, 9, 0)[e];
    }
    EXPECT_EQ(results[0], expect);
}

// ---------------------------------------------------------------------------
// Old-or-new under adversarial gather/write interleavings.

struct SweepOutcome
{
    std::uint64_t rounds = 0;
    std::uint64_t torn = 0;       ///< result neither old nor new
    std::uint64_t redirects = 0;  ///< fence re-pointed a stale view
    std::uint64_t newSeen = 0;    ///< gather observed the new value
};

/**
 * One seeded race campaign on a tiny drive: every round launches a
 * single-row NDP gather and, microseconds later, an update to that
 * same row — plus random firmware pauses that stretch the window
 * between the gather's page resolution and its deferred sum, and
 * filler updates to other rows that keep the log churning and GC
 * erasing. Verifies each gather returns exactly the old or the new
 * vector; anything else counts as torn.
 */
SweepOutcome
raceSweep(bool disable_fence, std::uint64_t seed, unsigned rounds)
{
    SystemConfig cfg;
    cfg.ssd.flash = test::tinyFlash();
    // Narrow GC rows (2 channels x 1 die x 4 pages = 8 pages/row):
    // a burst of updates invalidates a whole row fast, so GC erases
    // fire while gathers are in flight — the exact race the fence
    // must win.
    cfg.ssd.flash.diesPerChannel = 1;
    cfg.ssd.flash.pagesPerBlock = 4;
    cfg.ssd.flash.blocksPerDie = 24;
    // A page cache big enough to hold the whole drive would absorb
    // every gather before it touches flash; keep it token-sized (one
    // set of 8 ways) so reads race real flash traffic.
    cfg.ssd.ftl.pageCachePages = 8;
    cfg.ssd.sls.disableWriteFence = disable_fence;
    System sys(cfg);

    auto table = sys.installTable(64, 8);
    NdpSlsBackend ndp(sys.eq(), sys.cpu(), sys.driver(), sys.queues(),
                      NdpSlsBackend::Options{});

    Rng rng(seed);
    std::vector<std::uint64_t> version(table.rows, 0);
    SweepOutcome out;
    std::uint64_t redirects_before =
        sys.ssd().slsEngine().fenceRedirects();

    for (unsigned round = 0; round < rounds; ++round) {
        EventQueue &eq = sys.eq();
        Tick t0 = eq.now();
        RowId target = rng.uniformInt(table.rows);
        std::vector<float> oldv =
            versionVector(table, target, version[target]);
        std::vector<float> newv =
            versionVector(table, target, ++version[target]);

        SlsOp op;
        op.table = &table;
        op.indices = {{target}};
        SlsResult result;
        bool gathered = false;
        ndp.run(op, [&](SlsResult r) {
            result = std::move(r);
            gathered = true;
        });

        // Firmware pauses: the first can land between the gather's
        // page resolution and its flash read completing; the second
        // queues behind the racing write, holding the deferred sum
        // back while programs/GC/erases complete underneath it.
        if (rng.bernoulli(0.5)) {
            Tick at = t0 + (8 + rng.uniformInt(30)) * usec;
            Tick dur = (1 + rng.uniformInt(20)) * msec;
            eq.schedule(at,
                        [&sys, dur]() {
                            sys.ssd().ftl().injectFirmwarePause(dur);
                        });
        }
        bool updated = false;
        eq.schedule(t0 + rng.uniformInt(100) * usec, [&, newv]() {
            updateRow(sys.driver(), sys.queues(), table, target, newv,
                      [&updated]() { updated = true; });
        });
        if (rng.bernoulli(0.5)) {
            Tick at = t0 + (20 + rng.uniformInt(120)) * usec;
            Tick dur = (1 + rng.uniformInt(30)) * msec;
            eq.schedule(at,
                        [&sys, dur]() {
                            sys.ssd().ftl().injectFirmwarePause(dur);
                        });
        }
        // Filler writes to other rows: log pressure that keeps GC
        // relocating and erasing while the gather is in flight. At
        // most one write per row per round — NVMe makes no ordering
        // promise for same-LBA writes racing on different queues
        // (the UpdateFlusher coalesces per-row for exactly this
        // reason), so duplicate fillers could finish out of order
        // and leave storage one version behind the bookkeeping.
        unsigned fillers = rng.uniformInt(10);
        std::set<RowId> written;
        for (unsigned f = 0; f < fillers; ++f) {
            RowId other = rng.uniformInt(table.rows);
            if (other == target || !written.insert(other).second)
                continue;
            std::vector<float> fv =
                versionVector(table, other, ++version[other]);
            eq.schedule(t0 + rng.uniformInt(300) * usec, [&, other, fv]() {
                updateRow(sys.driver(), sys.queues(), table, other, fv,
                          []() {});
            });
        }

        sys.run();
        EXPECT_TRUE(gathered);
        EXPECT_TRUE(updated);
        ++out.rounds;
        if (result == newv)
            ++out.newSeen;
        else if (result != oldv)
            ++out.torn;
    }
    out.redirects =
        sys.ssd().slsEngine().fenceRedirects() - redirects_before;
    return out;
}

TEST(UpdateConsistency, NoTornSumAcrossSeededInterleavings)
{
    // 21 campaigns x 500 rounds = 10'500 gather/write interleavings.
    SweepOutcome total;
    for (std::uint64_t seed = 1; seed <= 21; ++seed) {
        SweepOutcome o = raceSweep(false, seed, 500);
        EXPECT_EQ(o.torn, 0u) << "torn gather with the fence on, seed "
                              << seed;
        total.rounds += o.rounds;
        total.torn += o.torn;
        total.redirects += o.redirects;
        total.newSeen += o.newSeen;
    }
    EXPECT_GE(total.rounds, 10'000u);
    EXPECT_EQ(total.torn, 0u);
    // The sweep is only meaningful if the races actually happen: the
    // fence must have re-pointed stale views, and some gathers must
    // have observed the new value.
    EXPECT_GT(total.redirects, 0u);
    EXPECT_GT(total.newSeen, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic forced-eviction tear.

struct RecipeOutcome
{
    std::vector<float> result;
    std::vector<float> oldv;
    std::vector<float> newv;
    std::uint64_t redirects = 0;
    std::uint64_t gcRunsDuringRace = 0;
    /** @{ gcRelocationRace only: the destination shared the source's
     *  buffer, and the source PPN was uncovered (erased) at the end. */
    bool sharedBuffer = false;
    bool sourceCovered = true;
    /** @} */
};

/**
 * Steps 1 and 2 of the recipes below, on a drive with narrow GC rows
 * (2 x 1 x 4 pages, same as raceSweep):
 *
 *  1. Seal an overlay row whose only valid page is the target row's
 *     current page (write the target, fill the row with neighbours,
 *     rewrite the neighbours elsewhere).
 *  2. Park the drive exactly at the GC low watermark with a 7/8-full
 *     active row, so the next two allocations tip it over.
 */
struct TearRig
{
    static SystemConfig
    config(bool disable_fence, unsigned gc_high_rows = 0)
    {
        SystemConfig cfg;
        cfg.ssd.flash = test::tinyFlash();
        cfg.ssd.flash.diesPerChannel = 1;
        cfg.ssd.flash.pagesPerBlock = 4;
        cfg.ssd.flash.blocksPerDie = 24;
        cfg.ssd.ftl.pageCachePages = 8;
        cfg.ssd.sls.disableWriteFence = disable_fence;
        if (gc_high_rows)
            cfg.ssd.ftl.gcHighWatermarkRows = gc_high_rows;
        return cfg;
    }

    explicit TearRig(bool disable_fence, unsigned gc_high_rows = 0)
        : cfg(config(disable_fence, gc_high_rows)),
          sys(cfg),
          table(sys.installTable(64, 8)),
          ndp(sys.eq(), sys.cpu(), sys.driver(), sys.queues(),
              NdpSlsBackend::Options{})
    {
        auto &blocks = sys.ssd().ftl().blocks();
        const std::uint64_t row_pages = blocks.pagesPerRow();
        // Step 1: the victim row — target's page plus its neighbours,
        // then move the neighbours on so the target's page is the
        // row's only valid page.
        put(0, 1);
        for (RowId r = 1; r < row_pages; ++r)
            put(r, 1);
        for (RowId r = 1; r < row_pages; ++r)
            put(r, 2);

        // Step 2: cyclic scratch overwrites walk free rows down to the
        // low watermark, then top the active row up to one free slot.
        // The cycle spans three rows, so (a) the active row never
        // holds an already-invalidated slot (a page recurs only after
        // the row sealed), and (b) all the garbage left behind is
        // reclaimable — GC can always climb back to its high watermark
        // instead of churning live pages forever.
        scratchSpan = 3 * row_pages;
        while (blocks.freeRows() > cfg.ssd.ftl.gcLowWatermarkRows)
            putScratch();
        auto activeUsed = [&]() -> std::uint32_t {
            for (std::uint64_t r = 0; r < blocks.numRows(); ++r)
                if (blocks.rowState(r) == BlockManager::RowState::Active)
                    return blocks.rowValidCount(r);
            return 0;
        };
        while (activeUsed() + 1 < row_pages)
            putScratch();
        EXPECT_EQ(sys.ssd().ftl().gcRuns(), 0u)
            << "setup must stop short of triggering GC";
    }

    void
    put(RowId row, std::uint64_t ver)
    {
        bool done = false;
        updateRow(sys.driver(), sys.queues(), table, row,
                  versionVector(table, row, ver), [&]() { done = true; });
        sys.run();
        EXPECT_TRUE(done);
    }

    Lpn scratchLpn() { return scratch + (nextScratch++ % scratchSpan); }

    /** Issue one scratch page write on `queue` (not drained). */
    void
    writeScratch(unsigned queue, std::function<void()> done)
    {
        auto data = std::make_shared<std::vector<std::byte>>(
            sys.driver().pageSize(), std::byte{0x5A});
        sys.driver().writePage(queue, scratchLpn(), data, std::move(done));
    }

    void
    putScratch()
    {
        bool done = false;
        writeScratch(0, [&]() { done = true; });
        sys.run();
        EXPECT_TRUE(done);
    }

    SystemConfig cfg;
    System sys;
    EmbeddingTableDesc table;
    NdpSlsBackend ndp;
    const Lpn scratch = 17 * slsTableAlign;
    std::uint64_t scratchSpan = 1;
    std::uint64_t nextScratch = 0;
};

/**
 * The exact interleaving the fence exists for, constructed step by
 * step rather than found by sweeping. After the rig's steps 1 and 2:
 *
 *  3. In one event-drained run: launch the gather (it resolves the
 *     target's PPN and issues the flash read), inject a long firmware
 *     pause, and queue behind it an update to the target (invalidates
 *     the resolved page — its row is now fully invalid), one scratch
 *     write (opens a fresh row, dropping free rows below the
 *     watermark) and one trim (whose firmware grant starts GC). GC
 *     erases the all-invalid victim row — zero-filling the page the
 *     gather resolved — before the paused gather gets the CPU back to
 *     run its deferred sum.
 *
 * With the fence on, the consume-time epoch check re-points the view
 * at the live mapping and the gather returns the new value. With the
 * fence off it sums the erased page: neither old nor new.
 */
RecipeOutcome
forcedEvictionRace(bool disable_fence)
{
    TearRig rig(disable_fence);
    System &sys = rig.sys;
    EventQueue &eq = sys.eq();
    const EmbeddingTableDesc &table = rig.table;

    // Step 3: the race itself.
    RecipeOutcome out;
    out.oldv = versionVector(table, 0, 1);
    out.newv = versionVector(table, 0, 2);
    std::uint64_t gc_before = sys.ssd().ftl().gcRuns();
    std::uint64_t redirects_before = sys.ssd().slsEngine().fenceRedirects();

    SlsOp op;
    op.table = &table;
    op.indices = {{0}};
    bool gathered = false;
    Tick t0 = eq.now();
    rig.ndp.run(op, [&](SlsResult r) {
        out.result = std::move(r);
        gathered = true;
    });
    // The pause must land after the gather resolves its PPN (the
    // config scan runs within the first few microseconds) but before
    // its flash read completes (60us later), so the deferred sum
    // queues behind everything below.
    eq.schedule(t0 + 30 * usec, [&]() {
        sys.ssd().ftl().injectFirmwarePause(50 * msec);
    });
    eq.schedule(t0 + 40 * usec, [&]() {
        updateRow(sys.driver(), sys.queues(), table, 0,
                  versionVector(table, 0, 2), []() {});
    });
    eq.schedule(t0 + 50 * usec, [&]() { rig.writeScratch(1, []() {}); });
    eq.schedule(t0 + 60 * usec, [&]() {
        sys.driver().trimPage(2, rig.scratch + 0, []() {});
    });
    sys.run();
    EXPECT_TRUE(gathered);

    out.redirects =
        sys.ssd().slsEngine().fenceRedirects() - redirects_before;
    out.gcRunsDuringRace = sys.ssd().ftl().gcRuns() - gc_before;
    return out;
}

TEST(UpdateConsistency, FenceRedirectsForcedEviction)
{
    // With the fence on, the consume-time epoch check re-points the
    // gather at the live mapping: the result is exactly the new row.
    RecipeOutcome o = forcedEvictionRace(false);
    EXPECT_GT(o.gcRunsDuringRace, 0u)
        << "recipe must actually erase under the gather";
    EXPECT_GE(o.redirects, 1u);
    EXPECT_EQ(o.result, o.newv);
}

TEST(UpdateConsistency, DisabledFenceTearsUnderForcedEviction)
{
    // The shipped fence is load-bearing: the identical recipe with
    // the fence compiled out sums the GC-erased page — neither the
    // old row nor the new one. The audit's torn-sum invariant would
    // panic on that gather first (AuditCatchesTornGather covers it),
    // so observe the torn sum with the audit off even when the suite
    // runs under RECSSD_AUDIT=1.
    ScopedNoAudit no_audit;
    RecipeOutcome o = forcedEvictionRace(true);
    EXPECT_GT(o.gcRunsDuringRace, 0u);
    EXPECT_NE(o.result, o.oldv);
    EXPECT_NE(o.result, o.newv);
}

TEST(UpdateConsistencyDeathTest, AuditCatchesTornGather)
{
    // Under RECSSD_AUDIT the engine's consume-time invariant panics
    // on the first gather that would sum an erased page. The audit
    // env var must be set before the System is constructed (the
    // engine caches it), hence everything lives inside the death
    // statement.
    EXPECT_DEATH(
        {
            ScopedAudit audit;
            forcedEvictionRace(true);
        },
        "torn");
}

// ---------------------------------------------------------------------------
// Shared page buffers: a written page is stored once, by reference, and
// GC relocation stores the same buffer at the destination PPN.

/** A bare FTL on the tiny geometry (8 rows x 32 pages). */
struct BareFtl
{
    FlashParams params = test::tinyFlash();
    EventQueue eq;
    DataStore store{params.pageSize};
    FlashArray flash{eq, params, store};
    Ftl ftl{eq, FtlParams{}, flash};

    DataStore::Page
    page(std::uint8_t seed) const
    {
        auto data = std::make_shared<std::vector<std::byte>>(params.pageSize);
        for (std::size_t i = 0; i < data->size(); ++i)
            (*data)[i] = std::byte(static_cast<std::uint8_t>(seed + i % 7));
        return data;
    }

    std::vector<std::byte>
    read(Lpn lpn)
    {
        std::vector<std::byte> out(params.pageSize);
        ftl.hostRead(lpn, [&](const PageView &view) { view.copyOut(0, out); });
        eq.run();
        return out;
    }
};

TEST(SharedPages, HostWriteStoresTheSubmittedBuffer)
{
    BareFtl d;
    DataStore::Page data = d.page(9);
    d.ftl.hostWrite(3, data, nullptr);
    d.eq.run();
    EXPECT_EQ(d.store.stored(d.ftl.map().lookup(3)).get(), data.get())
        << "the write path must not copy the page";
    EXPECT_EQ(d.read(3), *data);
}

TEST(SharedPages, GcRelocationSharesTheBufferAndErasingTheSourceKeepsIt)
{
    BareFtl d;
    // Cold pages, written once into the first row; then random hot
    // overwrites until GC has relocated every cold page.
    constexpr Lpn kCold = 8;
    std::vector<DataStore::Page> cold;
    std::vector<Ppn> home;
    for (Lpn l = 0; l < kCold; ++l) {
        cold.push_back(d.page(static_cast<std::uint8_t>(l)));
        d.ftl.hostWrite(l, cold[l], nullptr);
        d.eq.run();
        home.push_back(d.ftl.map().lookup(l));
    }
    const DataStore::Page hot = d.page(200);
    Rng rng(17);
    std::vector<bool> moved(kCold, false);
    std::uint64_t shared_seen = 0;   // source and destination both live
    std::uint64_t erased_seen = 0;   // source row erased, not reused
    auto check = [&]() {
        for (Lpn l = 0; l < kCold; ++l) {
            Ppn now = d.ftl.map().lookup(l);
            if (now == home[l])
                continue;
            moved[l] = true;
            ASSERT_EQ(d.store.stored(now).get(), cold[l].get())
                << "LPN " << l << " was relocated with a copy";
            if (d.store.hasStored(home[l]) &&
                d.store.stored(home[l]).get() == cold[l].get())
                ++shared_seen;
            BlockManager &blocks = d.ftl.blocks();
            if (blocks.rowState(blocks.rowOf(home[l])) ==
                BlockManager::RowState::Free) {
                // Erased and not yet reallocated: the source is gone
                // even though its bytes live on at `now`.
                ++erased_seen;
                EXPECT_FALSE(d.store.covered(home[l])) << "LPN " << l;
                EXPECT_TRUE(d.store.covered(now)) << "LPN " << l;
            }
        }
    };
    for (int w = 0; w < 4000 && !std::ranges::all_of(moved, [](bool m) {
                        return m;
                    });
         ++w) {
        d.ftl.hostWrite(kCold + rng.uniformInt(100), hot, nullptr);
        while (d.eq.runOne())
            check();
    }
    ASSERT_TRUE(std::ranges::all_of(moved, [](bool m) { return m; }))
        << "workload must make GC relocate every cold page";
    EXPECT_GT(d.ftl.gcPagesMigrated(), 0u);
    EXPECT_GT(shared_seen, 0u) << "never saw source and copy share";
    EXPECT_GT(erased_seen, 0u) << "never saw an erased source row";
    for (Lpn l = 0; l < kCold; ++l) {
        EXPECT_EQ(d.read(l), *cold[l]) << "LPN " << l;
        // The test's handle plus the live PPN: erasing the source
        // dropped only its own reference.
        EXPECT_EQ(cold[l].use_count(), 2) << "LPN " << l;
    }
}

/**
 * The relocation flavour of the forced-eviction tear: the target's
 * page is not rewritten but moved by GC, so the destination PPN shares
 * the source's buffer while the source row is erased under the gather.
 * After the rig's steps 1 and 2, with the GC high watermark at 12 rows
 * (GC then collects the eight empty rows, a one-page scratch row, and
 * the target's row, in that order):
 *
 *  3. Land two scratch writes and a trim (whose grant starts GC), and
 *     step the queue until GC starts the pass over the target's row;
 *     its read of the target page is now in flight.
 *  4. Launch the gather: it resolves the source PPN before GC's
 *     firmware step relocates the page.
 *  5. Step to the relocation, then pause the firmware core, so the
 *     gather consumes only after the source row has been erased.
 *
 * With the fence on, the gather is redirected to the destination and
 * sums the shared buffer. With it off, it sums the erased source.
 */
RecipeOutcome
gcRelocationRace(bool disable_fence)
{
    TearRig rig(disable_fence, 12);
    System &sys = rig.sys;
    EventQueue &eq = sys.eq();
    Ftl &ftl = sys.ssd().ftl();
    BlockManager &blocks = ftl.blocks();
    const DataStore &store = ftl.flash().store();
    const Lpn lpn = rig.table.lpnOf(0);
    const Ppn source = ftl.map().lookup(lpn);
    const DataStore::Page buffer = store.stored(source);
    EXPECT_NE(buffer, nullptr) << "the target page must be host-written";

    RecipeOutcome out;
    out.oldv = versionVector(rig.table, 0, 1);
    out.newv = out.oldv;  // moved, never rewritten
    const std::uint64_t gc_before = ftl.gcRuns();
    const std::uint64_t redirects_before =
        sys.ssd().slsEngine().fenceRedirects();

    // Step 3.
    rig.writeScratch(1, []() {});
    rig.writeScratch(3, []() {});
    sys.driver().trimPage(2, rig.scratch + 0, []() {});
    std::uint64_t passes = ftl.gcRuns();
    while (true) {
        if (!eq.runOne()) {
            ADD_FAILURE() << "GC never collected the target's row";
            return out;
        }
        if (ftl.gcRuns() != passes) {
            passes = ftl.gcRuns();
            if (blocks.pickGcVictim() == blocks.rowOf(source))
                break;
        }
    }

    // Step 4.
    SlsOp op;
    op.table = &rig.table;
    op.indices = {{0}};
    bool gathered = false;
    rig.ndp.run(op, [&](SlsResult r) {
        out.result = std::move(r);
        gathered = true;
    });

    // Step 5.
    while (ftl.map().lookup(lpn) == source) {
        if (!eq.runOne()) {
            ADD_FAILURE() << "GC never relocated the target page";
            return out;
        }
    }
    const Ppn dest = ftl.map().lookup(lpn);
    out.sharedBuffer = store.stored(dest) == buffer;
    ftl.injectFirmwarePause(50 * msec);
    sys.run();
    EXPECT_TRUE(gathered);
    EXPECT_EQ(store.stored(dest), buffer) << "relocated bytes must survive";

    out.sourceCovered = store.covered(source);
    out.redirects =
        sys.ssd().slsEngine().fenceRedirects() - redirects_before;
    out.gcRunsDuringRace = ftl.gcRuns() - gc_before;
    return out;
}

TEST(SharedPages, FenceRedirectsToTheSharedBufferAfterSourceErase)
{
    RecipeOutcome o = gcRelocationRace(false);
    EXPECT_TRUE(o.sharedBuffer) << "GC must share, not copy";
    EXPECT_FALSE(o.sourceCovered) << "the erased source must be uncovered";
    EXPECT_GE(o.redirects, 1u) << "the gather must have resolved the source";
    EXPECT_EQ(o.result, o.oldv);
}

TEST(SharedPages, DisabledFenceSumsTheErasedRelocationSource)
{
    // The bytes living on at the destination must not make the erased
    // source look intact: without the fence the gather sums zeros.
    ScopedNoAudit no_audit;
    RecipeOutcome o = gcRelocationRace(true);
    EXPECT_TRUE(o.sharedBuffer);
    EXPECT_FALSE(o.sourceCovered);
    EXPECT_NE(o.result, o.oldv);
}

TEST(SharedPagesDeathTest, AuditCatchesTornGatherOnErasedRelocationSource)
{
    // covered() follows the PPN, not the buffer: the torn-sum audit
    // fires on the erased source although its buffer lives on.
    EXPECT_DEATH(
        {
            ScopedAudit audit;
            gcRelocationRace(true);
        },
        "torn SLS gather");
}

// ---------------------------------------------------------------------------
// Replica convergence.

TEST(UpdateConsistency, ReplicatedWritesConvergeOnEveryDevice)
{
    SystemConfig cfg = test::smallSystem();
    cfg.shard.numShards = 2;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.shard.replication = 2;
    System sys(cfg);
    auto table = sys.installTable(1'000, 8);

    const RowId row = 123;
    std::vector<float> fresh = versionVector(table, row, 5);
    auto targets = sys.router().updateTargets(table.id, row);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_NE(targets[0].shard, targets[1].shard);
    EXPECT_FALSE(targets[0].replica);
    EXPECT_TRUE(targets[1].replica);

    unsigned done = 0;
    for (const auto &t : targets) {
        updateRow(sys.driver(t.shard), sys.queues(t.shard), *t.desc,
                  t.localRow, fresh, [&]() { ++done; });
    }
    sys.run();
    ASSERT_EQ(done, targets.size());

    // Every copy — primary and replica, each through its own device's
    // NDP engine — serves the updated vector.
    for (const auto &t : targets) {
        NdpSlsBackend ndp(sys.eq(), sys.cpu(), sys.driver(t.shard),
                          sys.queues(t.shard), NdpSlsBackend::Options{});
        SlsOp op;
        op.table = t.desc;
        op.indices = {{t.localRow}};
        SlsResult result;
        ndp.run(op, [&](SlsResult r) { result = std::move(r); });
        sys.run();
        EXPECT_EQ(result, fresh) << "shard " << t.shard;
    }
}

// ---------------------------------------------------------------------------
// Host LRU coherence under a live update stream.

TEST(UpdateConsistency, BaselineHostCacheMatchesTheSsdAfterMixedServe)
{
    System sys(test::smallSystem());
    ModelConfig model;
    model.name = "hot";
    model.tables = {TableGroup{2, 4'000, 8, 16}};
    model.denseInputs = 8;
    model.bottomMlp = {16, 8};
    model.topMlp = {32, 1};
    model.embeddingDominated = true;
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::BaselineSsd;
    opt.forceAllTablesOnSsd = true;
    opt.hostLruCache = true;
    opt.hostCacheEntries = 512;
    opt.trace.kind = TraceKind::Zipf;
    opt.trace.zipfAlpha = 1.05;
    ModelRunner runner(sys, model, opt);

    // Skewed reads and skewed updates: the hot rows are both cached
    // and rewritten, in both orders, while the serve runs.
    ServeConfig scfg;
    scfg.arrivals.qps = 300.0;
    scfg.shape.minBatch = 4;
    scfg.shape.maxBatch = 4;
    scfg.queries = 40;
    scfg.seed = 20261017;
    scfg.updates.rate = 20'000.0;
    scfg.updates.skew = 1.05;
    ServeStats stats = runServe(runner, scfg);
    ASSERT_GT(stats.update.applied, 100u);
    HostEmbeddingCache &cache = *runner.hostCache();
    ASSERT_GT(cache.hits(), 0u);

    // Every row, read once through the runner's cached backend and once
    // straight off the drive, must agree. The hot rows are cached; the
    // cached read goes first so a miss fills before the repeat hits.
    BaselineSsdSlsBackend uncached(sys.eq(), sys.cpu(), sys.driver(),
                                   sys.queues(),
                                   BaselineSsdSlsBackend::Options{});
    SlsBackend &cached = *runner.shardedBackend();
    auto serve = [&sys](SlsBackend &backend, const SlsOp &op) {
        SlsResult out;
        backend.run(op, [&out](SlsResult r) { out = std::move(r); });
        sys.run();
        return out;
    };
    std::uint64_t hits_before = cache.hits();
    for (const EmbeddingTableDesc &table : runner.ssdTableDescs()) {
        for (RowId first = 0; first < table.rows; first += 200) {
            SlsOp op;
            op.table = &table;
            for (RowId row = first; row < std::min<RowId>(first + 200,
                                                          table.rows);
                 ++row)
                op.indices.push_back({row, row});
            SlsResult want = serve(uncached, op);
            ASSERT_EQ(serve(cached, op), want)
                << "table " << table.id << " rows " << first << "+";
        }
    }
    EXPECT_GT(cache.hits() - hits_before, 1000u);
}

// ---------------------------------------------------------------------------
// Determinism of mixed read-write serving.

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.name = "tiny";
    m.tables = {TableGroup{2, 50'000, 16, 8}};
    m.denseInputs = 8;
    m.bottomMlp = {16, 8};
    m.topMlp = {32, 1};
    m.embeddingDominated = true;
    return m;
}

/** Serve the fixed mixed-RW workload; return the stats-JSON bytes
 *  plus the update counters that must reproduce exactly. */
struct MixedArtifacts
{
    std::string statsJson;
    std::uint64_t applied = 0;
    std::uint64_t flushes = 0;
    std::uint64_t hostPageWrites = 0;
    double p99Us = 0.0;
};

MixedArtifacts
runMixedOnce(double update_rate)
{
    SystemConfig cfg = test::smallSystem();
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);

    ServeConfig scfg;
    scfg.arrivals.qps = 300.0;
    scfg.shape.minBatch = 4;
    scfg.shape.maxBatch = 4;
    scfg.batching.maxBatchSamples = 16;
    scfg.batching.maxInFlight = 2;
    scfg.queries = 20;
    scfg.warmupQueries = 4;
    scfg.seed = 20260808;
    scfg.updates.rate = update_rate;
    scfg.updates.skew = 0.8;
    ServeStats stats = runServe(runner, scfg);

    MixedArtifacts art;
    std::ostringstream os;
    sys.dumpStatsJson(os);
    art.statsJson = os.str();
    art.applied = stats.update.applied;
    art.flushes = stats.update.flushes;
    art.hostPageWrites = stats.update.hostPageWrites;
    art.p99Us = stats.p99Us;
    return art;
}

TEST(UpdateConsistency, MixedServeIsByteIdenticalAcrossRuns)
{
    MixedArtifacts first = runMixedOnce(5'000.0);
    MixedArtifacts second = runMixedOnce(5'000.0);
    EXPECT_GT(first.applied, 0u);
    EXPECT_GT(first.hostPageWrites, 0u);
    EXPECT_EQ(first.statsJson, second.statsJson);
    EXPECT_EQ(first.applied, second.applied);
    EXPECT_EQ(first.flushes, second.flushes);
    EXPECT_EQ(first.p99Us, second.p99Us);
}

TEST(UpdateConsistency, AuditDoesNotPerturbMixedServe)
{
    MixedArtifacts plain = runMixedOnce(5'000.0);
    MixedArtifacts audited = [] {
        ScopedAudit audit;
        return runMixedOnce(5'000.0);
    }();
    EXPECT_EQ(plain.statsJson, audited.statsJson);
    EXPECT_EQ(plain.applied, audited.applied);
    EXPECT_EQ(plain.p99Us, audited.p99Us);
}

TEST(UpdateConsistency, ZeroRateSpecLeavesServeByteIdentical)
{
    // A spec that sets every knob but keeps rate 0 must not disturb a
    // single output byte relative to the default (no-updates) config:
    // the flusher is never built and serve.update.* never registers.
    MixedArtifacts off = runMixedOnce(0.0);

    SystemConfig cfg = test::smallSystem();
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.forceAllTablesOnSsd = true;
    ModelRunner runner(sys, tinyModel(), opt);
    ServeConfig scfg;
    scfg.arrivals.qps = 300.0;
    scfg.shape.minBatch = 4;
    scfg.shape.maxBatch = 4;
    scfg.batching.maxBatchSamples = 16;
    scfg.batching.maxInFlight = 2;
    scfg.queries = 20;
    scfg.warmupQueries = 4;
    scfg.seed = 20260808;
    scfg.updates.rate = 0.0;  // disabled, every other knob set
    scfg.updates.skew = 0.9;
    scfg.updates.flushRows = 4;
    scfg.updates.maxWait = 100 * usec;
    scfg.updates.maxInFlight = 7;
    scfg.updates.seed = 555;
    ServeStats stats = runServe(runner, scfg);
    std::ostringstream os;
    sys.dumpStatsJson(os);

    EXPECT_EQ(os.str(), off.statsJson);
    EXPECT_EQ(stats.update.applied, 0u);
    EXPECT_EQ(stats.update.hostPageWrites, 0u);
    EXPECT_EQ(stats.update.writeAmplification, 0.0);
    EXPECT_TRUE(off.statsJson.find("serve.update") == std::string::npos);
}

}  // namespace
}  // namespace recssd
