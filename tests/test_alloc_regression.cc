/**
 * @file
 * Allocation regression test for the NDP page pipeline.
 *
 * This binary replaces the global operator new (plain and nothrow, with
 * the matching deletes) with a counting one and serves one warmed,
 * single-SSD NDP SLS operation that reads well over a thousand flash
 * pages. Per-request allocations (the config payload,
 * the result vectors and bytes, the request's own bookkeeping) are
 * fine; per-page and per-event ones are not. The kernel's callback
 * slots, the flash/FTL/NVMe/NDP operation records and the spill pool
 * all grow to their high-water mark during the warm-up op and are
 * reused after it, so the measured op must stay far below one
 * allocation per ten executed events.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "tests/test_helpers.h"

namespace
{

std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t bytes)
{
    ++allocations;
    if (void *p = std::malloc(bytes ? bytes : 1))
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
    ++allocations;
    return std::malloc(bytes ? bytes : 1);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    ++allocations;
    return std::malloc(bytes ? bytes : 1);
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

}  // namespace
}  // namespace recssd
