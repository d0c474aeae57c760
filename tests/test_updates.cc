/**
 * @file
 * Online table update tests: read-modify-write through the block
 * interface, visibility in every backend, and SSD embedding-cache
 * coherence.
 */

#include <gtest/gtest.h>

#include "src/embedding/baseline_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/embedding/table_update.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

class UpdateTest : public ::testing::Test
{
  protected:
    void
    makeSystem(std::uint64_t cache_bytes = 0)
    {
        SystemConfig cfg = test::smallSystem();
        cfg.ssd.sls.embeddingCacheBytes = cache_bytes;
        sys_ = std::make_unique<System>(cfg);
    }

    void
    update(const EmbeddingTableDesc &table, RowId row,
           const std::vector<float> &values,
           HostEmbeddingCache *host_cache = nullptr)
    {
        bool done = false;
        updateRow(sys_->driver(), sys_->queues(), table, row, values,
                  [&]() { done = true; }, 0, host_cache);
        sys_->run();
        ASSERT_TRUE(done);
    }

    SlsResult
    runOp(SlsBackend &backend, const EmbeddingTableDesc &table,
          std::vector<std::vector<RowId>> indices)
    {
        SlsOp op;
        op.table = &table;
        op.indices = std::move(indices);
        SlsResult out;
        backend.run(op, [&](SlsResult r) { out = std::move(r); });
        sys_->run();
        return out;
    }

    std::unique_ptr<System> sys_;
};

TEST_F(UpdateTest, SingleRowPageUpdateVisibleToNdp)
{
    makeSystem();
    auto table = sys_->installTable(10'000, 8);
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), NdpSlsBackend::Options{});

    std::vector<float> fresh = {1, 2, 3, 4, 5, 6, 7, 8};
    update(table, 42, fresh);
    auto result = runOp(ndp, table, {{42}});
    EXPECT_EQ(result, fresh);
}

TEST_F(UpdateTest, UpdateVisibleToBaseline)
{
    makeSystem();
    auto table = sys_->installTable(10'000, 8);
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(),
                               BaselineSsdSlsBackend::Options{});
    std::vector<float> fresh(8, 9.0f);
    update(table, 7, fresh);
    auto result = runOp(base, table, {{7, 100}});
    std::vector<float> expect = fresh;
    for (std::uint32_t e = 0; e < 8; ++e)
        expect[e] += synthetic::value(table.id, 100, e);
    EXPECT_EQ(result, expect);
}

TEST_F(UpdateTest, HostCacheServesTheUpdateOfACachedRow)
{
    makeSystem();
    auto table = sys_->installTable(1000, 8);
    HostEmbeddingCache cache(64);
    BaselineSsdSlsBackend::Options opt;
    opt.hostCache = &cache;
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(), opt);
    std::vector<float> v1(8, 12.0f);

    EXPECT_EQ(runOp(base, table, {{5}}), synthetic::expectedSls(table, {{5}}));
    update(table, 5, v1, &cache);
    std::uint64_t hits = cache.hits();
    EXPECT_EQ(runOp(base, table, {{5}}), v1);
    EXPECT_EQ(cache.hits(), hits + 1) << "the update must not evict";
}

TEST_F(UpdateTest, HostCacheFillsAnUncachedRowWithItsUpdate)
{
    makeSystem();
    auto table = sys_->installTable(1000, 8);
    HostEmbeddingCache cache(64);
    BaselineSsdSlsBackend::Options opt;
    opt.hostCache = &cache;
    BaselineSsdSlsBackend base(sys_->eq(), sys_->cpu(), sys_->driver(),
                               sys_->queues(), opt);
    std::vector<float> v1(8, 7.0f);
    std::vector<float> twice(8, 14.0f);

    update(table, 9, v1, &cache);
    // The miss reads the SSD; the repeat in the same op and the next
    // op hit the row the miss filled.
    EXPECT_EQ(runOp(base, table, {{9, 9}}), twice);
    EXPECT_EQ(runOp(base, table, {{9}}), v1);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(UpdateTest, PackedPageRmwPreservesNeighbours)
{
    makeSystem();
    // 4KB test pages, dim 8 fp32 = 32B vectors -> 128 per page.
    unsigned rows_per_page =
        sys_->config().ssd.flash.pageSize / (8 * 4);
    auto table = sys_->installTable(10'000, 8, 4, rows_per_page);
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), NdpSlsBackend::Options{});

    std::vector<float> fresh(8, 3.0f);
    update(table, 5, fresh);  // same page as rows 0..rows_per_page-1
    auto result = runOp(ndp, table, {{5}, {6}, {4}});
    for (std::uint32_t e = 0; e < 8; ++e) {
        EXPECT_EQ(result[e], 3.0f);
        EXPECT_EQ(result[8 + e], synthetic::value(table.id, 6, e));
        EXPECT_EQ(result[16 + e], synthetic::value(table.id, 4, e));
    }
}

TEST_F(UpdateTest, SsdEmbeddingCacheInvalidatedOnUpdate)
{
    makeSystem(16ull * 1024 * 1024);
    auto table = sys_->installTable(10'000, 8);
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), NdpSlsBackend::Options{});

    // Populate the device cache with the synthetic value.
    auto before = runOp(ndp, table, {{11}});
    EXPECT_EQ(before, synthetic::expectedSls(table, {{11}}));

    std::vector<float> fresh(8, 2.5f);
    update(table, 11, fresh);

    // Without invalidation this would return the stale cached vector.
    auto after = runOp(ndp, table, {{11}});
    EXPECT_EQ(after, fresh);
}

TEST_F(UpdateTest, RepeatedUpdatesConverge)
{
    makeSystem(16ull * 1024 * 1024);
    auto table = sys_->installTable(10'000, 4);
    NdpSlsBackend ndp(sys_->eq(), sys_->cpu(), sys_->driver(),
                      sys_->queues(), NdpSlsBackend::Options{});
    for (float v = 1.0f; v <= 4.0f; v += 1.0f) {
        std::vector<float> fresh(4, v);
        update(table, 3, fresh);
        auto result = runOp(ndp, table, {{3}});
        EXPECT_EQ(result, fresh) << "after update to " << v;
    }
}

TEST_F(UpdateTest, UpdateChargesSimulatedTime)
{
    makeSystem();
    auto table = sys_->installTable(10'000, 8);
    Tick before = sys_->eq().now();
    update(table, 1, std::vector<float>(8, 1.0f));
    EXPECT_GT(sys_->eq().now(), before);
}

TEST_F(UpdateTest, OutOfRangeRowPanics)
{
    makeSystem();
    auto table = sys_->installTable(100, 8);
    EXPECT_DEATH(updateRow(sys_->driver(), sys_->queues(), table, 100,
                           std::vector<float>(8, 0.0f), []() {}),
                 "out of range");
}

}  // namespace
}  // namespace recssd
