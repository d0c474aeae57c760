/**
 * @file
 * Allocation regression tests for the NDP page pipeline and the
 * conventional-SSD lookup path.
 *
 * This binary replaces the global operator new (plain and nothrow, with
 * the matching deletes) with a counting one and serves warmed,
 * single-SSD SLS operations that read hundreds to thousands of flash
 * pages. Per-request allocations (the config payload, the result
 * vectors and bytes, the request's own bookkeeping and page plan) are
 * fine; per-page, per-lookup and per-event ones are not. The kernel's
 * callback slots, the flash/FTL/NVMe/NDP/driver operation records, the
 * spill pool and the host cache's row slots all grow to their
 * high-water mark during the warm-up and are reused after it, so a
 * measured op must stay far below one allocation per ten executed
 * events.
 *
 * The write path is held to page buffers: a written 16 KB page is
 * stored by reference, so a warm GC relocation allocates no page-sized
 * buffer and a warm packed-row update allocates exactly one (its
 * read-modify-write copy).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/embedding/baseline_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/embedding/table_update.h"
#include "src/flash/flash_array.h"
#include "src/ftl/ftl.h"
#include "src/ndp/sls_engine.h"
#include "src/trace/trace_gen.h"
#include "tests/test_helpers.h"

namespace
{

std::uint64_t allocations = 0;
/** Allocations of at least `pageBytes` bytes: page buffers. */
std::uint64_t pageAllocations = 0;
std::size_t pageBytes = SIZE_MAX;

void *
countedAllocNothrow(std::size_t bytes) noexcept
{
    ++allocations;
    if (bytes >= pageBytes)
        ++pageAllocations;
    return std::malloc(bytes ? bytes : 1);
}

void *
countedAlloc(std::size_t bytes)
{
    if (void *p = countedAllocNothrow(bytes))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *
operator new(std::size_t bytes)
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes)
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(bytes);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace recssd
{
namespace
{

/** One lookup per page: rows `first`..`first + batch * per_sample`. */
SlsOp
distinctPageOp(const EmbeddingTableDesc &table, RowId first, unsigned batch,
               unsigned per_sample)
{
    SlsOp op;
    op.table = &table;
    op.indices.resize(batch);
    RowId row = first;
    for (auto &list : op.indices) {
        for (unsigned i = 0; i < per_sample; ++i)
            list.push_back(row++);
    }
    return op;
}

TEST(AllocRegression, WarmNdpOpAllocatesLessThanOncePerTenEvents)
{
    System sys(test::smallSystem());
    // One row per page, so every lookup is its own flash page read.
    EmbeddingTableDesc table = sys.installTable(8000, 32);
    NdpSlsBackend ndp(sys.eq(), sys.cpu(), sys.driver(), sys.queues(),
                      NdpSlsBackend::Options{});

    auto serve = [&](const SlsOp &op) {
        SlsResult out;
        bool done = false;
        ndp.run(op, [&](SlsResult r) {
            out = std::move(r);
            done = true;
        });
        sys.run();
        EXPECT_TRUE(done);
        return out;
    };

    // Warm-up: grows every pool to this op shape's high-water mark.
    SlsOp warm = distinctPageOp(table, 0, 8, 160);
    EXPECT_EQ(serve(warm), synthetic::expectedSls(table, warm.indices));

    SlsOp measured = distinctPageOp(table, 4000, 8, 160);
    SlsResult expected = synthetic::expectedSls(table, measured.indices);
    std::uint64_t pages_before = sys.ssd(0).flash().pageReads();
    std::uint64_t events_before = sys.eq().executed();
    std::uint64_t allocs_before = allocations;
    SlsResult got = serve(measured);
    std::uint64_t allocs = allocations - allocs_before;
    std::uint64_t events = sys.eq().executed() - events_before;
    std::uint64_t pages = sys.ssd(0).flash().pageReads() - pages_before;

    EXPECT_EQ(got, expected);
    ASSERT_GE(pages, 1000u) << "the op must exercise the page pipeline";
    double per_event = static_cast<double>(allocs) / events;
    RecordProperty("allocations", static_cast<int>(allocs));
    RecordProperty("events", static_cast<int>(events));
    EXPECT_LT(per_event, 0.1) << allocs << " allocations over " << events
                              << " events (" << pages << " flash pages)";
}

TEST(AllocRegression, WarmBaselineOpAllocatesLessThanOncePerTenEvents)
{
    System sys(test::smallSystem());
    // The baseline workload's shape: one vector per page, a 2048-row
    // host LRU and Zipf(1.05) rows, so most lookups hit the cache and
    // the rest are one NVMe read each.
    EmbeddingTableDesc table = sys.installTable(100'000, 32);
    HostEmbeddingCache cache(2048);
    BaselineSsdSlsBackend::Options opt;
    opt.hostCache = &cache;
    BaselineSsdSlsBackend base(sys.eq(), sys.cpu(), sys.driver(),
                               sys.queues(), opt);
    TraceSpec spec;
    spec.kind = TraceKind::Zipf;
    spec.universe = table.rows;
    spec.zipfAlpha = 1.05;
    spec.seed = 5;
    TraceGenerator gen(spec);
    auto nextOp = [&]() {
        SlsOp op;
        op.table = &table;
        op.indices = gen.nextBatch(8, 80);
        return op;
    };
    auto serve = [&](const SlsOp &op) {
        SlsResult out;
        bool done = false;
        base.run(op, [&](SlsResult r) {
            out = std::move(r);
            done = true;
        });
        sys.run();
        EXPECT_TRUE(done);
        return out;
    };

    SlsOp warm = nextOp();
    EXPECT_EQ(serve(warm), synthetic::expectedSls(table, warm.indices));

    SlsOp measured = nextOp();
    SlsResult expected = synthetic::expectedSls(table, measured.indices);
    std::uint64_t reads_before = base.pageReadsIssued();
    std::uint64_t hits_before = cache.hits();
    std::uint64_t events_before = sys.eq().executed();
    std::uint64_t allocs_before = allocations;
    SlsResult got = serve(measured);
    std::uint64_t allocs = allocations - allocs_before;
    std::uint64_t events = sys.eq().executed() - events_before;
    std::uint64_t reads = base.pageReadsIssued() - reads_before;

    EXPECT_EQ(got, expected);
    ASSERT_GE(reads, 100u) << "the op must exercise the page path";
    ASSERT_GE(cache.hits() - hits_before, 100u)
        << "the op must exercise the host cache";
    double per_event = static_cast<double>(allocs) / events;
    RecordProperty("allocations", static_cast<int>(allocs));
    RecordProperty("events", static_cast<int>(events));
    EXPECT_LT(per_event, 0.1) << allocs << " allocations over " << events
                              << " events (" << reads << " page reads)";
}

/** Counts page-sized allocations while alive. */
class PageAllocationScope
{
  public:
    explicit PageAllocationScope(std::size_t page_bytes)
    {
        pageBytes = page_bytes;
    }
    ~PageAllocationScope() { pageBytes = SIZE_MAX; }
    PageAllocationScope(const PageAllocationScope &) = delete;
    PageAllocationScope &operator=(const PageAllocationScope &) = delete;
};

TEST(AllocRegression, WarmGcRelocationAllocatesNoPageBuffer)
{
    // A bare FTL on the tiny geometry with production-size pages; the
    // host rewrites random pages with one prebuilt buffer, so every
    // page-sized allocation in the measured window would be GC's.
    FlashParams params = test::tinyFlash();
    params.pageSize = 16384;
    EventQueue eq;
    DataStore store(params.pageSize);
    FlashArray flash(eq, params, store);
    Ftl ftl(eq, FtlParams{}, flash);
    const DataStore::Page page = std::make_shared<std::vector<std::byte>>(
        params.pageSize, std::byte{0x5A});
    Rng rng(3);
    auto writeUntilMigrated = [&](std::uint64_t target) {
        for (int w = 0; w < 20000 && ftl.gcPagesMigrated() < target; ++w) {
            ftl.hostWrite(rng.uniformInt(100), page, nullptr);
            eq.run();
        }
    };
    writeUntilMigrated(50);  // warm-up: pools, maps, GC state
    ASSERT_GE(ftl.gcPagesMigrated(), 50u) << "workload must relocate";

    PageAllocationScope scope(params.pageSize);
    const std::uint64_t migrated_before = ftl.gcPagesMigrated();
    const std::uint64_t pages_before = pageAllocations;
    writeUntilMigrated(migrated_before + 100);
    ASSERT_GE(ftl.gcPagesMigrated() - migrated_before, 100u);
    EXPECT_EQ(pageAllocations - pages_before, 0u)
        << "GC relocation must share the source page's buffer";
}

TEST(AllocRegression, WarmPackedRowUpdateAllocatesOnePageBuffer)
{
    System sys(test::smallSystem());
    // 64 rows per page: every update is a read-modify-write.
    EmbeddingTableDesc table = sys.installTable(10'000, 32, 4, 64);
    auto update = [&](RowId row, std::uint64_t version) {
        bool done = false;
        updateRow(sys.driver(), sys.queues(), table, row,
                  synthetic::updatedVector(table, row, version),
                  [&]() { done = true; });
        sys.run();
        EXPECT_TRUE(done);
    };
    // Warm-up: RMWs of pristine and already-rewritten pages.
    for (RowId row : {RowId(0), RowId(1), RowId(500), RowId(501)})
        update(row, 1);

    PageAllocationScope scope(sys.driver().pageSize());
    // A synthetic page (materialised once for the patch) and an
    // explicitly stored one (copied once): one page buffer each.
    const RowId pristine = 5000;
    const RowId rewritten = 2;  // on row 0's page
    for (RowId row : {pristine, rewritten}) {
        const std::uint64_t before = pageAllocations;
        update(row, 2);
        EXPECT_EQ(pageAllocations - before, 1u) << "row " << row;
    }
}


TEST(AllocRegression, WarmDriverCommandsAllocateOnlyTheirBuffers)
{
    // A warmed write, trim and SLS config + result pair through the
    // driver, the controller and the FTL or SLS engine allocate what
    // the same device-side work allocates when issued directly, plus
    // the command's own data buffers: the config's serialize() vector
    // and the shared page holding it (packResults is engine work). The
    // chain itself -- records, continuations, completions -- allocates
    // nothing.
    System sys(test::smallSystem());
    EmbeddingTableDesc table = sys.installTable(1000, 32);
    UnvmeDriver &drv = sys.driver();
    Ftl &ftl = sys.ssd().ftl();
    SlsEngine &engine = sys.ssd().slsEngine();
    SlsConfig cfg;
    cfg.featureDim = table.dim;
    cfg.attrBytes = table.attrBytes;
    cfg.rowsPerPage = table.rowsPerPage;
    cfg.numResults = 2;
    cfg.pairs = {{3, 0}, {9, 0}, {40, 1}};
    const DataStore::Page page = std::make_shared<std::vector<std::byte>>(
        drv.pageSize(), std::byte{0x5A});
    const DataStore::Page cfg_bytes =
        std::make_shared<std::vector<std::byte>>(cfg.serialize());

    // Completions shaped like real callers: more than two pointers of
    // captures.
    unsigned completions = 0;
    Tick last = 0;
    EventQueue &eq = sys.eq();
    auto done = [&completions, &last, &eq]() {
        ++completions;
        last = eq.now();
    };
    auto result_done = [&completions, &last, &eq](DataStore::Page bytes) {
        ASSERT_NE(bytes, nullptr);
        ++completions;
        last = eq.now();
    };
    auto allocs = [&](auto &&issue) {
        const std::uint64_t before = allocations;
        issue();
        sys.run();
        return allocations - before;
    };
    auto slsCommand = [&](NvmeOpcode opcode, std::uint64_t req) {
        NvmeCommand cmd;
        cmd.opcode = opcode;
        cmd.slsFlag = true;
        cmd.slba = SlsAddress::encode(table.baseLpn, req);
        cmd.payload = cfg_bytes;
        return cmd;
    };

    struct Counts
    {
        std::uint64_t write, trim, config, result;
    };
    auto viaDriver = [&](Lpn lpn) {
        Counts c{};
        c.write = allocs([&] { drv.writePage(0, lpn, page, done); });
        c.trim = allocs([&] { drv.trimPage(0, lpn, done); });
        std::uint64_t req = drv.allocRequestId();
        c.config = allocs(
            [&] { drv.slsConfigWrite(0, table.baseLpn, req, cfg, done); });
        c.result = allocs([&] {
            drv.slsResultRead(0, table.baseLpn, req, result_done);
        });
        return c;
    };
    auto direct = [&](Lpn lpn) {
        Counts c{};
        c.write = allocs([&] { ftl.hostWrite(lpn, page, done); });
        c.trim = allocs([&] { ftl.hostTrim(lpn, done); });
        std::uint64_t req = drv.allocRequestId();
        NvmeCommand config = slsCommand(NvmeOpcode::Write, req);
        NvmeCommand result = slsCommand(NvmeOpcode::Read, req);
        c.config = allocs([&] { engine.configWrite(config, done); });
        c.result = allocs([&] { engine.resultRead(result, result_done); });
        return c;
    };

    // Warm-up: grows every pool and record to this shape's high-water
    // mark.
    for (Lpn lpn : {500, 501}) {
        viaDriver(lpn);
        direct(lpn);
    }
    const unsigned completions_before = completions;
    Counts chain = viaDriver(502);
    Counts device = direct(503);
    ASSERT_EQ(completions - completions_before, 8u);

    RecordProperty("write_allocations", static_cast<int>(chain.write));
    RecordProperty("trim_allocations", static_cast<int>(chain.trim));
    RecordProperty("config_allocations", static_cast<int>(chain.config));
    RecordProperty("result_allocations", static_cast<int>(chain.result));
    EXPECT_EQ(chain.write, device.write) << "write";
    EXPECT_EQ(chain.trim, device.trim) << "trim";
    EXPECT_EQ(chain.config, device.config + 2)
        << "SLS config: serialize() plus its shared page";
    EXPECT_EQ(chain.result, device.result) << "SLS result";
}

}  // namespace
}  // namespace recssd
