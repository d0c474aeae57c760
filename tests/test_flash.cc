/**
 * @file
 * Unit tests for the flash array: addressing, the data store, and the
 * timing model (latencies, channel/die parallelism, throughput).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/event_queue.h"
#include "src/flash/flash_array.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

std::vector<std::byte>
pattern(unsigned size, std::uint8_t seed)
{
    std::vector<std::byte> data(size);
    for (unsigned i = 0; i < size; ++i)
        data[i] = std::byte(static_cast<std::uint8_t>(seed + i));
    return data;
}

TEST(FlashAddress, EncodeDecodeRoundTrip)
{
    FlashParams p = test::tinyFlash();
    for (Ppn ppn = 0; ppn < p.totalPages(); ++ppn) {
        auto a = FlashAddress::decode(ppn, p);
        EXPECT_LT(a.channel, p.numChannels);
        EXPECT_LT(a.die, p.diesPerChannel);
        EXPECT_LT(a.block, p.blocksPerDie);
        EXPECT_LT(a.page, p.pagesPerBlock);
        EXPECT_EQ(FlashAddress::encode(a.channel, a.die, a.block, a.page, p),
                  ppn);
    }
}

TEST(FlashAddress, ConsecutivePpnsStripeChannels)
{
    FlashParams p;  // defaults: 8 channels
    for (Ppn ppn = 0; ppn < 64; ++ppn) {
        auto a = FlashAddress::decode(ppn, p);
        EXPECT_EQ(a.channel, ppn % p.numChannels);
    }
}

TEST(FlashParams, CosmosLikeRates)
{
    FlashParams p;
    // Aggregate sequential read should be just under 1.4GB/s (§5).
    double per_channel_pages_per_sec =
        double(sec) / double(p.pageTransferTime() + p.cmdLatency);
    double bw = per_channel_pages_per_sec * p.numChannels * p.pageSize;
    EXPECT_GT(bw, 1.1e9);
    EXPECT_LT(bw, 1.45e9);
    // Around 10K page reads/s per channel.
    EXPECT_GT(per_channel_pages_per_sec, 9000.0);
    EXPECT_LT(per_channel_pages_per_sec, 12000.0);
}

TEST(DataStore, StoredReadBack)
{
    DataStore store(4096);
    auto data = pattern(4096, 3);
    store.write(7, data);
    std::vector<std::byte> out(4096);
    store.read(7, 0, out);
    EXPECT_EQ(out, data);
    EXPECT_TRUE(store.hasStored(7));
}

TEST(DataStore, PartialReads)
{
    DataStore store(4096);
    store.write(1, pattern(4096, 9));
    std::vector<std::byte> out(16);
    store.read(1, 100, out);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], std::byte(static_cast<std::uint8_t>(9 + 100 + i)));
}

TEST(DataStore, UnwrittenReadsZero)
{
    DataStore store(4096);
    std::vector<std::byte> out(64, std::byte{0xFF});
    store.read(123, 0, out);
    for (auto b : out)
        EXPECT_EQ(b, std::byte{0});
}

TEST(DataStore, SyntheticRegionGenerates)
{
    DataStore store(4096);
    store.registerSynthetic(100, 10, [](std::uint64_t page,
                                        std::size_t offset,
                                        std::span<std::byte> out) {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = std::byte(
                static_cast<std::uint8_t>(page + offset + i));
    });
    std::vector<std::byte> out(8);
    store.read(105, 16, out);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], std::byte(static_cast<std::uint8_t>(5 + 16 + i)));
    // Outside the region: zeros.
    store.read(110, 0, out);
    EXPECT_EQ(out[0], std::byte{0});
}

TEST(DataStore, StoredOverridesSynthetic)
{
    DataStore store(4096);
    store.registerSynthetic(0, 4, [](std::uint64_t, std::size_t,
                                     std::span<std::byte> out) {
        std::ranges::fill(out, std::byte{0xAA});
    });
    store.write(2, pattern(4096, 1));
    std::vector<std::byte> out(4);
    store.read(2, 0, out);
    EXPECT_EQ(out[0], std::byte{1});
    store.erase(2);
    store.read(2, 0, out);
    EXPECT_EQ(out[0], std::byte{0xAA});
}

TEST(DataStoreDeathTest, OverlappingRegionsPanic)
{
    DataStore store(4096);
    store.registerSynthetic(0, 10, [](auto, auto, auto) {});
    EXPECT_DEATH(store.registerSynthetic(5, 10, [](auto, auto, auto) {}),
                 "overlap");
}

class FlashTimingTest : public ::testing::Test
{
  protected:
    FlashTimingTest()
        : store_(params_.pageSize), flash_(eq_, params_, store_)
    {
    }

    FlashParams params_ = test::tinyFlash();
    EventQueue eq_;
    DataStore store_;
    FlashArray flash_;
};

TEST_F(FlashTimingTest, SingleReadLatency)
{
    Tick done = 0;
    flash_.readPage(0, [&](const PageView &) { done = eq_.now(); });
    eq_.run();
    Tick expected = params_.cmdLatency + params_.readLatency +
                    params_.pageTransferTime();
    EXPECT_EQ(done, expected);
    EXPECT_EQ(flash_.pageReads(), 1u);
}

TEST_F(FlashTimingTest, DifferentChannelsProceedInParallel)
{
    Tick done0 = 0;
    Tick done1 = 0;
    flash_.readPage(0, [&](const PageView &) { done0 = eq_.now(); });
    flash_.readPage(1, [&](const PageView &) { done1 = eq_.now(); });
    eq_.run();
    EXPECT_EQ(done0, done1) << "channel 0 and 1 reads are independent";
}

TEST_F(FlashTimingTest, SameChannelSerializesTransfers)
{
    // Two reads to the same channel but different dies: tR overlaps,
    // the bus transfer cannot.
    Ppn a = 0;
    Ppn b = FlashAddress::encode(0, 1, 0, 0, params_);
    Tick done_a = 0;
    Tick done_b = 0;
    flash_.readPage(a, [&](const PageView &) { done_a = eq_.now(); });
    flash_.readPage(b, [&](const PageView &) { done_b = eq_.now(); });
    eq_.run();
    EXPECT_GE(done_b, done_a + params_.pageTransferTime());
}

TEST_F(FlashTimingTest, SameDieSerializesReads)
{
    Ppn a = FlashAddress::encode(0, 0, 0, 0, params_);
    Ppn b = FlashAddress::encode(0, 0, 0, 1, params_);
    Tick done_b = 0;
    flash_.readPage(a, [](const PageView &) {});
    flash_.readPage(b, [&](const PageView &) { done_b = eq_.now(); });
    eq_.run();
    EXPECT_GE(done_b, 2 * params_.readLatency);
}

TEST_F(FlashTimingTest, WriteThenReadReturnsData)
{
    auto data = pattern(params_.pageSize, 0x42);
    bool wrote = false;
    flash_.writePage(5, store_.makePage(data), [&]() { wrote = true; });
    eq_.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(flash_.pageWrites(), 1u);

    std::vector<std::byte> out(params_.pageSize);
    bool read = false;
    flash_.readPage(5, [&](const PageView &view) {
        view.copyOut(0, out);
        read = true;
    });
    eq_.run();
    EXPECT_TRUE(read);
    EXPECT_EQ(out, data);
}

TEST_F(FlashTimingTest, WriteLatencyIncludesProgram)
{
    Tick done = 0;
    flash_.writePage(0, store_.makePage(pattern(params_.pageSize, 1)),
                     [&]() { done = eq_.now(); });
    eq_.run();
    EXPECT_GE(done, params_.programLatency);
}

TEST_F(FlashTimingTest, EraseDropsBlockData)
{
    auto data = pattern(params_.pageSize, 7);
    flash_.writePage(0, store_.makePage(data), nullptr);
    eq_.run();
    bool erased = false;
    flash_.eraseBlock(0, [&]() { erased = true; });
    eq_.run();
    EXPECT_TRUE(erased);
    EXPECT_EQ(flash_.blockErases(), 1u);

    std::vector<std::byte> out(16, std::byte{0xFF});
    flash_.readPage(0, [&](const PageView &view) { view.copyOut(0, out); });
    eq_.run();
    EXPECT_EQ(out[0], std::byte{0});
}

TEST_F(FlashTimingTest, ThroughputNearChannelLimit)
{
    // Saturate one channel with 50 reads across its dies.
    const unsigned n = 50;
    unsigned done = 0;
    for (unsigned i = 0; i < n; ++i) {
        Ppn ppn = FlashAddress::encode(0, i % params_.diesPerChannel,
                                       (i / params_.diesPerChannel) %
                                           params_.blocksPerDie,
                                       i % params_.pagesPerBlock, params_);
        flash_.readPage(ppn, [&](const PageView &) { ++done; });
    }
    Tick elapsed = eq_.run();
    EXPECT_EQ(done, n);
    // Pipelined bound: the slower of the die-array limit and the bus
    // limit, plus startup slack. Far below the unpipelined serial
    // time of n x (cmd + tR + transfer).
    Tick per_page = params_.pageTransferTime() + params_.cmdLatency;
    Tick bus_bound = per_page * n;
    Tick die_bound = params_.readLatency * (n / params_.diesPerChannel + 1);
    EXPECT_LT(elapsed, std::max(bus_bound, die_bound) + per_page * 4 +
                           params_.readLatency)
        << "pipelined reads should approach the resource limit";
    Tick serial = n * (per_page + params_.readLatency);
    EXPECT_LT(elapsed, serial / 2) << "must be far better than serial";
}

}  // namespace
}  // namespace recssd
