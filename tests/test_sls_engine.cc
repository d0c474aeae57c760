/**
 * @file
 * RecSSD SLS engine tests: functional correctness of the offloaded
 * gather/reduce under many configurations, concurrency across
 * entries, caching fast paths, and the Fig 8 timing breakdown.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/embedding/sls_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/trace/trace_gen.h"
#include "tests/test_helpers.h"

namespace recssd
{
namespace
{

class SlsEngineTest : public ::testing::Test
{
  protected:
    void
    makeSystem(std::uint64_t cache_bytes = 0)
    {
        SystemConfig cfg = test::smallSystem();
        cfg.ssd.sls.embeddingCacheBytes = cache_bytes;
        sys_ = std::make_unique<System>(cfg);
    }

    /** Drive one SLS op through the raw driver commands. */
    SlsResult
    runRaw(const EmbeddingTableDesc &table,
           const std::vector<std::vector<RowId>> &indices)
    {
        SlsConfig cfg;
        cfg.featureDim = table.dim;
        cfg.attrBytes = table.attrBytes;
        cfg.rowsPerPage = table.rowsPerPage;
        cfg.numResults = static_cast<std::uint32_t>(indices.size());
        for (std::uint32_t b = 0; b < indices.size(); ++b) {
            for (RowId row : indices[b])
                cfg.pairs.push_back(
                    SlsPair{static_cast<std::uint32_t>(row), b});
        }
        std::stable_sort(cfg.pairs.begin(), cfg.pairs.end(),
                         [](auto &a, auto &b) {
                             return a.inputId < b.inputId;
                         });

        std::uint64_t req = sys_->driver().allocRequestId();
        SlsResult result(indices.size() * table.dim);
        bool done = false;
        sys_->driver().slsConfigWrite(
            0, table.baseLpn, req, cfg, [&, req]() {
                sys_->driver().slsResultRead(
                    0, table.baseLpn, req,
                    [&](DataStore::Page bytes) {
                        std::memcpy(result.data(), bytes->data(),
                                    result.size() * sizeof(float));
                        done = true;
                    });
            });
        sys_->run();
        EXPECT_TRUE(done);
        return result;
    }

    std::vector<std::vector<RowId>>
    randomIndices(const EmbeddingTableDesc &table, unsigned batch,
                  unsigned lookups, std::uint64_t seed)
    {
        TraceSpec spec;
        spec.kind = TraceKind::Uniform;
        spec.universe = table.rows;
        spec.seed = seed;
        TraceGenerator gen(spec);
        return gen.nextBatch(batch, lookups);
    }

    std::unique_ptr<System> sys_;
};

TEST_F(SlsEngineTest, SingleLookupSingleResult)
{
    makeSystem();
    auto table = sys_->installTable(1000, 16);
    auto result = runRaw(table, {{7}});
    EXPECT_EQ(result, synthetic::expectedSls(table, {{7}}));
}

TEST_F(SlsEngineTest, DuplicateInputsAccumulateTwice)
{
    makeSystem();
    auto table = sys_->installTable(1000, 8);
    auto result = runRaw(table, {{5, 5, 5}});
    EXPECT_EQ(result, synthetic::expectedSls(table, {{5, 5, 5}}));
}

TEST_F(SlsEngineTest, SharedInputAcrossResults)
{
    makeSystem();
    auto table = sys_->installTable(1000, 8);
    std::vector<std::vector<RowId>> idx = {{3, 9}, {9, 40}, {3}};
    EXPECT_EQ(runRaw(table, idx), synthetic::expectedSls(table, idx));
}

struct EngineParamCase
{
    std::uint32_t dim;
    std::uint32_t attrBytes;
    // A full word rather than bool so the struct has no padding: gtest
    // prints the raw bytes into the test name, and padding bytes are
    // indeterminate, which made the names change from build to build.
    std::uint32_t packed;
    unsigned batch;
    unsigned lookups;
};

class SlsEngineParamTest
    : public SlsEngineTest,
      public ::testing::WithParamInterface<EngineParamCase>
{
};

TEST_P(SlsEngineParamTest, MatchesReferenceAcrossConfigs)
{
    const auto &p = GetParam();
    makeSystem();
    unsigned rows_per_page =
        p.packed ? sys_->config().ssd.flash.pageSize /
                       (p.dim * p.attrBytes)
                 : 1;
    auto table = sys_->installTable(200'000, p.dim, p.attrBytes,
                                    rows_per_page);
    auto idx = randomIndices(table, p.batch, p.lookups, 1234 + p.dim);
    EXPECT_EQ(runRaw(table, idx), synthetic::expectedSls(table, idx));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SlsEngineParamTest,
    ::testing::Values(EngineParamCase{8, 4, false, 2, 5},
                      EngineParamCase{32, 4, false, 8, 20},
                      EngineParamCase{64, 4, false, 4, 80},
                      EngineParamCase{128, 4, false, 2, 10},
                      EngineParamCase{32, 4, true, 8, 20},
                      EngineParamCase{64, 4, true, 4, 40},
                      EngineParamCase{32, 2, false, 4, 10},
                      EngineParamCase{32, 2, true, 4, 10},
                      EngineParamCase{16, 1, true, 4, 16}));

TEST_F(SlsEngineTest, ConcurrentRequestsInterleave)
{
    makeSystem();
    auto t1 = sys_->installTable(100'000, 32);
    auto t2 = sys_->installTable(100'000, 32);

    auto idx1 = randomIndices(t1, 4, 10, 1);
    auto idx2 = randomIndices(t2, 4, 10, 2);

    SlsResult r1;
    SlsResult r2;
    auto launch = [&](const EmbeddingTableDesc &table,
                      const std::vector<std::vector<RowId>> &idx,
                      unsigned queue, SlsResult &out) {
        SlsConfig cfg;
        cfg.featureDim = table.dim;
        cfg.attrBytes = 4;
        cfg.rowsPerPage = 1;
        cfg.numResults = static_cast<std::uint32_t>(idx.size());
        for (std::uint32_t b = 0; b < idx.size(); ++b) {
            for (RowId row : idx[b])
                cfg.pairs.push_back(
                    SlsPair{static_cast<std::uint32_t>(row), b});
        }
        std::stable_sort(cfg.pairs.begin(), cfg.pairs.end(),
                         [](auto &a, auto &b) {
                             return a.inputId < b.inputId;
                         });
        std::uint64_t req = sys_->driver().allocRequestId();
        out.resize(idx.size() * table.dim);
        sys_->driver().slsConfigWrite(
            queue, table.baseLpn, req, cfg, [&, queue, req]() {
                sys_->driver().slsResultRead(
                    queue, table.baseLpn, req,
                    [&](DataStore::Page bytes) {
                        std::memcpy(out.data(), bytes->data(),
                                    out.size() * sizeof(float));
                    });
            });
    };
    launch(t1, idx1, 0, r1);
    launch(t2, idx2, 1, r2);
    sys_->run();
    EXPECT_EQ(r1, synthetic::expectedSls(t1, idx1));
    EXPECT_EQ(r2, synthetic::expectedSls(t2, idx2));
    EXPECT_EQ(sys_->ssd().slsEngine().requests(), 2u);
}

TEST_F(SlsEngineTest, EmbeddingCacheCutsFlashTraffic)
{
    makeSystem(64ull * 1024 * 1024);
    auto table = sys_->installTable(100'000, 32);
    auto idx = randomIndices(table, 8, 20, 7);

    runRaw(table, idx);
    std::uint64_t first = sys_->ssd().slsEngine().flashPagesRead();
    auto result = runRaw(table, idx);  // identical rows again
    std::uint64_t second =
        sys_->ssd().slsEngine().flashPagesRead() - first;
    EXPECT_EQ(second, 0u) << "all rows should hit the embedding cache";
    EXPECT_EQ(result, synthetic::expectedSls(table, idx));
    EXPECT_GT(sys_->ssd().slsEngine().embedCacheHits(), 0u);
}

TEST_F(SlsEngineTest, PageCacheFastPathAvoidsFlash)
{
    makeSystem();
    auto table = sys_->installTable(100'000, 32);
    // Warm the FTL page cache for LPN of row 11 via a normal read.
    bool warmed = false;
    sys_->driver().readPage(0, table.lpnOf(11),
                            [&](const PageView &) { warmed = true; });
    sys_->run();
    ASSERT_TRUE(warmed);

    std::uint64_t flash_before = sys_->ssd().flash().pageReads();
    auto result = runRaw(table, {{11}});
    EXPECT_EQ(result, synthetic::expectedSls(table, {{11}}));
    EXPECT_EQ(sys_->ssd().flash().pageReads(), flash_before)
        << "SLS should process the cached page directly (step 3b)";
    EXPECT_GT(sys_->ssd().slsEngine().pageCacheHits(), 0u);
}

TEST_F(SlsEngineTest, TimingBreakdownIsConsistent)
{
    makeSystem();
    auto table = sys_->installTable(1'000'000, 32);
    auto idx = randomIndices(table, 16, 40, 3);
    runRaw(table, idx);
    const SlsTiming &t = sys_->ssd().slsEngine().lastTiming();
    EXPECT_GT(t.configArrived, t.submitted);
    EXPECT_GT(t.configProcessed, t.configArrived);
    EXPECT_GE(t.flashDone, t.configProcessed);
    EXPECT_GE(t.resultSent, t.flashDone);
    EXPECT_GT(t.translationTime(), 0u);
    // Components must not exceed the enclosing span.
    EXPECT_LE(t.translationTime() + t.flashReadTime(),
              t.flashDone - t.configProcessed + 1);
}

TEST_F(SlsEngineTest, ManyConcurrentRequestsBeyondBufferDepth)
{
    // More in-flight requests than maxEntries: the wait queue must
    // hold and later admit them all.
    SystemConfig cfg = test::smallSystem();
    cfg.ssd.sls.maxEntries = 2;
    cfg.host.ioQueues = 8;
    cfg.ssd.nvme.numQueues = 8;
    sys_ = std::make_unique<System>(cfg);
    auto table = sys_->installTable(100'000, 16);

    unsigned completed = 0;
    for (unsigned q = 0; q < 6; ++q) {
        auto idx = randomIndices(table, 2, 4, 100 + q);
        SlsConfig scfg;
        scfg.featureDim = table.dim;
        scfg.attrBytes = 4;
        scfg.rowsPerPage = 1;
        scfg.numResults = 2;
        for (std::uint32_t b = 0; b < idx.size(); ++b) {
            for (RowId row : idx[b])
                scfg.pairs.push_back(
                    SlsPair{static_cast<std::uint32_t>(row), b});
        }
        std::stable_sort(scfg.pairs.begin(), scfg.pairs.end(),
                         [](auto &a, auto &b) {
                             return a.inputId < b.inputId;
                         });
        std::uint64_t req = sys_->driver().allocRequestId();
        sys_->driver().slsConfigWrite(
            q, table.baseLpn, req, scfg, [&, q, req, base = table.baseLpn]() {
                sys_->driver().slsResultRead(
                    q, base, req,
                    [&](DataStore::Page) {
                        ++completed;
                    });
            });
    }
    sys_->run();
    EXPECT_EQ(completed, 6u);
}

}  // namespace
}  // namespace recssd
