/**
 * @file
 * SLS backend tests: functional equivalence across DRAM, baseline
 * SSD and NDP under caches/partitions/layouts, plus the first-order
 * timing relationships the paper rests on.
 */

#include <gtest/gtest.h>

#include "src/embedding/baseline_backend.h"
#include "src/embedding/dram_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/trace/trace_gen.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

class BackendTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sys_ = std::make_unique<System>(test::smallSystem());
    }

    SlsResult
    runSync(SlsBackend &backend, const SlsOp &op)
    {
        SlsResult out;
        bool done = false;
        backend.run(op, [&](SlsResult r) {
            out = std::move(r);
            done = true;
        });
        sys_->run();
        EXPECT_TRUE(done);
        return out;
    }

    SlsOp
    traceOp(const EmbeddingTableDesc &table, TraceKind kind,
            unsigned batch, unsigned lookups, std::uint64_t seed)
    {
        TraceSpec spec;
        spec.kind = kind;
        spec.universe = table.rows;
        spec.seed = seed;
        spec.activeUniverse = 512;
        TraceGenerator gen(spec);
        SlsOp op;
        op.table = &table;
        op.indices = gen.nextBatch(batch, lookups);
        return op;
    }

    std::unique_ptr<System> sys_;
};

TEST_F(BackendTest, BaselineWithHostCacheStaysCorrect)
{
    auto table = sys_->installTable(1000, 32);
    HostEmbeddingCache cache(64);
    BaselineSsdSlsBackend::Options opt;
    opt.hostCache = &cache;
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(), opt);
    // High-reuse trace: repeat rows across consecutive ops.
    for (int rep = 0; rep < 3; ++rep) {
        auto op = traceOp(table, TraceKind::LocalityK, 4, 10, 5);
        EXPECT_EQ(runSync(base, op),
                  synthetic::expectedSls(table, op.indices))
            << "rep " << rep;
    }
    EXPECT_GT(cache.hits(), 0u) << "reuse must hit the LRU";
}

TEST_F(BackendTest, BaselineCacheReducesDeviceReads)
{
    auto table = sys_->installTable(100'000, 32);
    HostEmbeddingCache cache(2048);
    BaselineSsdSlsBackend::Options opt;
    opt.hostCache = &cache;
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(), opt);
    auto op = traceOp(table, TraceKind::Uniform, 4, 20, 5);
    runSync(base, op);
    std::uint64_t first = base.pageReadsIssued();
    runSync(base, op);  // identical op: all rows now cached
    EXPECT_EQ(base.pageReadsIssued(), first);
}

TEST_F(BackendTest, BaselineCoalescesPackedPages)
{
    unsigned rows_per_page =
        sys_->config().ssd.flash.pageSize / (32 * 4);
    auto table = sys_->installTable(100'000, 32, 4, rows_per_page);
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(),
                               BaselineSsdSlsBackend::Options{});
    // Sequential rows share pages: 64 lookups over 128-row pages must
    // issue exactly one read.
    auto op = traceOp(table, TraceKind::Sequential, 1, 64, 1);
    EXPECT_EQ(runSync(base, op),
              synthetic::expectedSls(table, op.indices));
    EXPECT_EQ(base.pageReadsIssued(), 1u);
}

TEST_F(BackendTest, BaselinePerLookupAblationReadsMore)
{
    unsigned rows_per_page =
        sys_->config().ssd.flash.pageSize / (32 * 4);
    auto table = sys_->installTable(100'000, 32, 4, rows_per_page);
    BaselineSsdSlsBackend::Options opt;
    opt.coalescePages = false;
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(), opt);
    auto op = traceOp(table, TraceKind::Sequential, 1, 64, 1);
    EXPECT_EQ(runSync(base, op),
              synthetic::expectedSls(table, op.indices));
    EXPECT_EQ(base.pageReadsIssued(), 64u);
}

TEST_F(BackendTest, NdpWithPartitionMatchesReference)
{
    auto table = sys_->installTable(100'000, 32);
    StaticPartition part(32);
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.universe = table.rows;
    spec.activeUniverse = 128;
    spec.seed = 77;
    TraceGenerator profiler(spec);
    for (int i = 0; i < 4000; ++i)
        part.profile(table.id, profiler.next());
    part.build([&](std::uint32_t, RowId row) {
        return synthetic::vectorOf(table, row);
    });

    NdpSlsBackend::Options opt;
    opt.partition = &part;
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), opt);
    auto op = traceOp(table, TraceKind::LocalityK, 8, 20, 78);
    EXPECT_EQ(runSync(ndp, op), synthetic::expectedSls(table, op.indices));
    EXPECT_GT(ndp.hotLookups(), 0u) << "partition should absorb hot rows";
    EXPECT_GT(ndp.coldLookups(), 0u);
}

TEST_F(BackendTest, NdpAllHotSkipsDevice)
{
    auto table = sys_->installTable(1000, 16);
    StaticPartition part(16);
    for (RowId r = 0; r < 8; ++r)
        part.profile(table.id, r);
    part.build([&](std::uint32_t, RowId row) {
        return synthetic::vectorOf(table, row);
    });
    NdpSlsBackend::Options opt;
    opt.partition = &part;
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), opt);
    SlsOp op;
    op.table = &table;
    op.indices = {{0, 1}, {2, 3}};
    std::uint64_t cmds = sys_->driver().commandsIssued();
    EXPECT_EQ(runSync(ndp, op), synthetic::expectedSls(table, op.indices));
    EXPECT_EQ(sys_->driver().commandsIssued(), cmds)
        << "fully host-resident op must not touch the device";
}

struct LayoutCase
{
    std::uint32_t dim;
    std::uint32_t attr;
    // A full word rather than bool so the struct has no padding: gtest
    // prints the raw bytes into the test name, and padding bytes are
    // indeterminate, which made the names change from build to build.
    std::uint32_t packed;
};

class BackendEquivalenceTest
    : public BackendTest,
      public ::testing::WithParamInterface<LayoutCase>
{
};

TEST_P(BackendEquivalenceTest, AllThreeBackendsAgree)
{
    const auto &p = GetParam();
    unsigned rows_per_page =
        p.packed ? sys_->config().ssd.flash.pageSize / (p.dim * p.attr)
                 : 1;
    auto table = sys_->installTable(50'000, p.dim, p.attr, rows_per_page);
    DramSlsBackend dram(sys_->eq(), sys_->cpu());
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(),
                               BaselineSsdSlsBackend::Options{});
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), NdpSlsBackend::Options{});
    auto op = traceOp(table, TraceKind::Uniform, 8, 15,
                      900 + p.dim + p.attr);
    auto a = runSync(dram, op);
    EXPECT_EQ(a, runSync(base, op));
    EXPECT_EQ(a, runSync(ndp, op));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BackendEquivalenceTest,
    ::testing::Values(LayoutCase{16, 4, false}, LayoutCase{32, 4, true},
                      LayoutCase{64, 4, false}, LayoutCase{64, 4, true},
                      LayoutCase{32, 2, true}, LayoutCase{32, 1, true}));

TEST_F(BackendTest, EmptyListsYieldZeros)
{
    auto table = sys_->installTable(1000, 8);
    DramSlsBackend dram(sys_->eq(), sys_->cpu());
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(),
                               BaselineSsdSlsBackend::Options{});
    SlsOp op;
    op.table = &table;
    op.indices = {{}, {}};
    auto zero = SlsResult(2 * table.dim, 0.0f);
    EXPECT_EQ(runSync(dram, op), zero);
    EXPECT_EQ(runSync(base, op), zero);
}

}  // namespace
}  // namespace recssd
