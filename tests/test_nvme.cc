/**
 * @file
 * NVMe layer tests: PCIe link model, controller data path, and
 * SLS-command dispatch to the handler interface.
 */

#include <gtest/gtest.h>

#include "src/flash/flash_array.h"
#include "src/ftl/ftl.h"
#include "src/nvme/host_controller.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

TEST(PcieLink, TransferTimeMatchesBandwidthPlusLatency)
{
    EventQueue eq;
    PcieParams p;
    p.bytesPerSec = 1000ull * 1000 * 1000;  // 1GB/s
    p.latency = 2 * usec;
    PcieLink link(eq, p);
    Tick done = 0;
    link.transfer(1000 * 1000, [&]() { done = eq.now(); });  // 1MB -> 1ms
    eq.run();
    EXPECT_EQ(done, 1 * msec + 2 * usec);
    EXPECT_EQ(link.bytesMoved(), 1000u * 1000);
}

TEST(PcieLink, BackToBackTransfersQueue)
{
    EventQueue eq;
    PcieParams p;
    p.bytesPerSec = 1000ull * 1000 * 1000;
    p.latency = 0;
    PcieLink link(eq, p);
    Tick done2 = 0;
    link.transfer(1000 * 1000, nullptr);
    link.transfer(1000 * 1000, [&]() { done2 = eq.now(); });
    eq.run();
    EXPECT_EQ(done2, 2 * msec);
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : store_(flashParams_.pageSize),
          flash_(eq_, flashParams_, store_),
          ftl_(eq_, FtlParams{}, flash_),
          pcie_(eq_, PcieParams{}),
          ctrl_(eq_, NvmeParams{}, pcie_, ftl_)
    {
    }

    FlashParams flashParams_ = test::tinyFlash();
    EventQueue eq_;
    DataStore store_;
    FlashArray flash_;
    Ftl ftl_;
    PcieLink pcie_;
    HostController ctrl_;
};

TEST_F(ControllerTest, WriteThenReadRoundTrip)
{
    auto payload = std::make_shared<std::vector<std::byte>>(
        flashParams_.pageSize, std::byte{0x3C});
    NvmeCommand wr;
    wr.opcode = NvmeOpcode::Write;
    wr.slba = 12;
    wr.payload = payload;
    bool wrote = false;
    ctrl_.submitWrite(wr, [&]() { wrote = true; });
    eq_.run();
    EXPECT_TRUE(wrote);

    NvmeCommand rd;
    rd.opcode = NvmeOpcode::Read;
    rd.slba = 12;
    std::vector<std::byte> out(16);
    ctrl_.submitRead(rd, [&](const PageView &view) {
        view.copyOut(0, out);
    });
    eq_.run();
    EXPECT_EQ(out[0], std::byte{0x3C});
    EXPECT_EQ(ctrl_.commandsProcessed(), 2u);
}

TEST_F(ControllerTest, ReadMovesPageAcrossPcie)
{
    std::uint64_t before = pcie_.bytesMoved();
    NvmeCommand rd;
    rd.slba = 0;
    ctrl_.submitRead(rd, [](const PageView &) {});
    eq_.run();
    EXPECT_GE(pcie_.bytesMoved() - before, flashParams_.pageSize);
}

/** Minimal handler that records what reached it. */
class RecordingHandler : public SlsHandler
{
  public:
    void
    configWrite(const NvmeCommand &cmd, ConfigDone done) override
    {
        configs.push_back(cmd);
        done();
    }

    void
    resultRead(const NvmeCommand &cmd, ResultDone done) override
    {
        reads.push_back(cmd);
        // 64 result bytes, DMAed as one padded 4 KB block.
        done(std::make_shared<std::vector<std::byte>>(64, std::byte{0x7}),
             4096);
    }

    std::vector<NvmeCommand> configs;
    std::vector<NvmeCommand> reads;
};

TEST_F(ControllerTest, SlsCommandsDispatchToHandler)
{
    RecordingHandler handler;
    ctrl_.setSlsHandler(&handler);

    NvmeCommand cfg;
    cfg.opcode = NvmeOpcode::Write;
    cfg.slsFlag = true;
    cfg.slba = 4242;
    cfg.payload =
        std::make_shared<std::vector<std::byte>>(128, std::byte{1});
    bool cfg_done = false;
    // Submit at t=10 so the doorbell stamp is observable.
    eq_.schedule(10, [&]() {
        ctrl_.submitSlsConfig(cfg, [&]() { cfg_done = true; });
    });
    eq_.run();
    EXPECT_TRUE(cfg_done);
    ASSERT_EQ(handler.configs.size(), 1u);
    EXPECT_EQ(handler.configs[0].slba, 4242u);
    EXPECT_EQ(handler.configs[0].submitTick, 10u)
        << "controller must stamp the doorbell time";

    NvmeCommand rd;
    rd.opcode = NvmeOpcode::Read;
    rd.slsFlag = true;
    rd.slba = 4242;
    DataStore::Page result;
    std::uint64_t before = pcie_.bytesMoved();
    ctrl_.submitSlsRead(rd, [&](auto data) { result = data; });
    eq_.run();
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->size(), 64u);
    EXPECT_GE(pcie_.bytesMoved() - before, 4096u)
        << "the result DMA must move the padded length";
    ASSERT_EQ(handler.reads.size(), 1u);
}

TEST_F(ControllerTest, SlsConfigPayloadCrossesPcie)
{
    RecordingHandler handler;
    ctrl_.setSlsHandler(&handler);
    std::uint64_t before = pcie_.bytesMoved();
    NvmeCommand cfg;
    cfg.opcode = NvmeOpcode::Write;
    cfg.slsFlag = true;
    cfg.payload =
        std::make_shared<std::vector<std::byte>>(10'000, std::byte{1});
    ctrl_.submitSlsConfig(cfg, []() {});
    eq_.run();
    EXPECT_GE(pcie_.bytesMoved() - before, 10'000u);
}

TEST_F(ControllerTest, NonSlsCommandsRejectSlsEntryPoints)
{
    NvmeCommand cmd;
    cmd.slsFlag = false;
    EXPECT_DEATH(ctrl_.submitSlsRead(cmd, [](auto) {}), "SLS");
    cmd.slsFlag = true;
    EXPECT_DEATH(ctrl_.submitRead(cmd, [](const PageView &) {}),
                 "submitSlsRead");
}

}  // namespace
}  // namespace recssd
