/**
 * @file
 * UNVMe driver model and queue allocator tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/host/queue_allocator.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

TEST(QueueAllocator, GrantsImmediatelyWhenFree)
{
    QueueAllocator alloc(2);
    int granted = -1;
    alloc.acquire([&](unsigned q) { granted = static_cast<int>(q); });
    EXPECT_EQ(granted, 0);
    EXPECT_EQ(alloc.available(), 1u);
}

TEST(QueueAllocator, FifoWaiters)
{
    QueueAllocator alloc(1);
    std::vector<int> order;
    alloc.acquire([&](unsigned) { order.push_back(0); });
    alloc.acquire([&](unsigned) { order.push_back(1); });
    alloc.acquire([&](unsigned) { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{0}));
    alloc.release(0);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    alloc.release(0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(QueueAllocator, ReleaseWithoutWaitersRestoresPool)
{
    QueueAllocator alloc(2);
    unsigned q0 = 99;
    alloc.acquire([&](unsigned q) { q0 = q; });
    alloc.release(q0);
    EXPECT_EQ(alloc.available(), 2u);
}

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest() : sys_(test::smallSystem()) {}

    System sys_;
};

TEST_F(DriverTest, QueueCountRespectsBothSides)
{
    EXPECT_EQ(sys_.driver().numQueues(),
              std::min(sys_.config().host.ioQueues,
                       sys_.config().ssd.nvme.numQueues));
}

TEST_F(DriverTest, RequestIdsAreUniqueAndInRange)
{
    std::uint64_t prev = 0;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t id = sys_.driver().allocRequestId();
        EXPECT_GT(id, 0u);
        EXPECT_LT(id, slsTableAlign);
        EXPECT_NE(id, prev);
        prev = id;
    }
}

TEST_F(DriverTest, ReadChargesIoWorkerThread)
{
    auto table = sys_.installTable(1000, 32);
    Tick busy_before = sys_.driver().ioThread(0).busyTime();
    bool done = false;
    sys_.driver().readPage(0, table.baseLpn,
                           [&](const PageView &) { done = true; });
    sys_.run();
    EXPECT_TRUE(done);
    EXPECT_GE(sys_.driver().ioThread(0).busyTime() - busy_before,
              sys_.config().host.submitCost +
                  sys_.config().host.completionCost);
}

TEST_F(DriverTest, CommandsCounted)
{
    auto table = sys_.installTable(1000, 32);
    for (int i = 0; i < 3; ++i) {
        sys_.driver().readPage(0, table.baseLpn + i,
                               [](const PageView &) {});
        sys_.run();
    }
    EXPECT_EQ(sys_.driver().commandsIssued(), 3u);
}

TEST_F(DriverTest, TrimCommandReachesTheDevice)
{
    // Write then trim through the full driver/NVMe path.
    auto data = std::make_shared<std::vector<std::byte>>(
        sys_.driver().pageSize(), std::byte{0x1F});
    bool wrote = false;
    sys_.driver().writePage(0, 500, data, [&]() { wrote = true; });
    sys_.run();
    ASSERT_TRUE(wrote);

    bool trimmed = false;
    sys_.driver().trimPage(0, 500, [&]() { trimmed = true; });
    sys_.run();
    EXPECT_TRUE(trimmed);
    EXPECT_EQ(sys_.ssd().ftl().hostTrims(), 1u);

    std::vector<std::byte> out(8, std::byte{0xFF});
    sys_.driver().readPage(0, 500, [&](const PageView &view) {
        view.copyOut(0, out);
    });
    sys_.run();
    EXPECT_EQ(out[0], std::byte{0});
}

TEST_F(DriverTest, QueuePairTracksOutstanding)
{
    auto table = sys_.installTable(1000, 32);
    EXPECT_EQ(sys_.driver().queuePair(0).outstanding(), 0u);
    bool done = false;
    sys_.driver().readPage(0, table.baseLpn,
                           [&](const PageView &) { done = true; });
    sys_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys_.driver().queuePair(0).outstanding(), 0u)
        << "completion must be consumed from the CQ ring";
}

TEST_F(DriverTest, SyncQueueMisusePanics)
{
    auto table = sys_.installTable(1000, 32);
    sys_.driver().readPage(0, table.baseLpn, [](const PageView &) {});
    // Queue 0 busy: a second command on it must trip the assertion.
    EXPECT_DEATH(
        sys_.driver().readPage(0, table.baseLpn, [](const PageView &) {}),
        "sync API misuse");
}

TEST_F(DriverTest, MisalignedTableBasePanics)
{
    SlsConfig cfg;
    cfg.featureDim = 4;
    cfg.numResults = 1;
    cfg.pairs = {{0, 0}};
    EXPECT_DEATH(
        sys_.driver().slsConfigWrite(0, 123, 1, cfg, []() {}),
        "aligned");
}


/** (name, begin, end) of every span on one trace track. */
using TrackSpans = std::vector<std::tuple<std::string, Tick, Tick>>;

TrackSpans
spansOnTrack(const Tracer &tracer, const std::string &track)
{
    TrackSpans out;
    for (const SpanRecord &s : tracer.spans()) {
        if (tracer.tracks()[s.track] == track)
            out.emplace_back(s.name, s.begin, s.end);
    }
    return out;
}

TEST_F(DriverTest, EveryCommandKindKeepsItsTicksAndSpans)
{
    // All five command kinds share one chain. Issue one of each at the
    // same tick, each on its own queue, and pin every completion tick
    // and queue-track span to the values the per-kind chains gave.
    SystemConfig cfg = test::smallSystem();
    cfg.host.ioQueues = 5;
    System sys(cfg);
    sys.enableTracing();
    UnvmeDriver &drv = sys.driver();
    ASSERT_EQ(drv.numQueues(), 5u);
    auto table = sys.installTable(1000, 32);
    SlsConfig sls;
    sls.featureDim = table.dim;
    sls.attrBytes = table.attrBytes;
    sls.rowsPerPage = table.rowsPerPage;
    sls.numResults = 2;
    sls.pairs = {{3, 0}, {9, 0}, {40, 1}};
    auto page = std::make_shared<std::vector<std::byte>>(drv.pageSize(),
                                                         std::byte{0x3C});
    // Setup: the page the trim deallocates, and request 1's config,
    // whose result read then runs beside request 2's config.
    drv.writePage(2, 501, page, []() {});
    drv.slsConfigWrite(4, table.baseLpn, 1, sls, []() {});
    sys.run();

    ASSERT_EQ(sys.eq().now(), 937912u);
    std::vector<Tick> done(5, 0);
    auto stamp = [&](unsigned kind) { done[kind] = sys.eq().now(); };
    drv.readPage(0, table.baseLpn + 7, [&](const PageView &) { stamp(0); });
    drv.writePage(1, 500, page, [&]() { stamp(1); });
    drv.trimPage(2, 501, [&]() { stamp(2); });
    drv.slsConfigWrite(3, table.baseLpn, 2, sls, [&]() { stamp(3); });
    drv.slsResultRead(4, table.baseLpn, 1, [&](auto) { stamp(4); });
    sys.run();

    EXPECT_EQ(done, (std::vector<Tick>{1131824, 1892584, 972962, 967942,
                                       967442}));
    const std::vector<TrackSpans> expected = {
        {{"read", 937912, 1131824},
         {"submit", 937912, 939912},
         {"poll", 1130324, 1131824}},
        {{"write", 937912, 1892584},
         {"submit", 937912, 939912},
         {"poll", 1891084, 1892584}},
        {{"write", 0, 937912},
         {"submit", 0, 2000},
         {"poll", 936412, 937912},
         {"trim", 937912, 972962},
         {"submit", 937912, 939912},
         {"poll", 971462, 972962}},
        {{"sls_config", 937912, 967942},
         {"submit", 937912, 939918},
         {"poll", 966442, 967942}},
        {{"sls_config", 0, 18319},
         {"submit", 0, 2006},
         {"poll", 16819, 18319},
         {"sls_result", 937912, 967442},
         {"submit", 937912, 939912},
         {"poll", 965942, 967442}},
    };
    for (unsigned q = 0; q < 5; ++q) {
        EXPECT_EQ(spansOnTrack(sys.tracer(), "unvme.q" + std::to_string(q)),
                  expected[q])
            << "queue " << q;
    }
}

}  // namespace
}  // namespace recssd
