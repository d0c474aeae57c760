/**
 * @file
 * Unit and property tests for the cache family: the generic LRU
 * template, the key-only set-associative LRU, the FTL page cache, the
 * host embedding cache and the static partition.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <unordered_map>

#include "src/cache/host_embedding_cache.h"
#include "src/cache/lru_cache.h"
#include "src/cache/set_assoc_lru.h"
#include "src/cache/static_partition.h"
#include "src/common/random.h"
#include "src/ftl/page_cache.h"

namespace recssd
{
namespace
{

TEST(LruCache, BasicPutGet)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    EXPECT_EQ(*cache.get(1), 10);
    EXPECT_EQ(*cache.get(2), 20);
    EXPECT_EQ(cache.get(3), nullptr);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.get(1);          // 2 becomes LRU
    cache.put(3, 30);      // evicts 2
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, PutOverwritesAndPromotes)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.put(1, 11);  // promote 1
    cache.put(3, 30);  // evicts 2
    EXPECT_EQ(*cache.get(1), 11);
    EXPECT_EQ(cache.get(2), nullptr);
}

/** Property: LruCache matches a straightforward reference model. */
TEST(LruCache, MatchesReferenceModel)
{
    constexpr std::size_t kCap = 16;
    LruCache<std::uint64_t, std::uint64_t> cache(kCap);
    // Reference: map + recency list.
    std::vector<std::uint64_t> recency;  // front = MRU
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng.uniformInt(64);
        auto *hit = cache.get(key);
        bool ref_hit = ref.contains(key);
        ASSERT_EQ(hit != nullptr, ref_hit) << "step " << i;
        if (ref_hit) {
            ASSERT_EQ(*hit, ref[key]);
            recency.erase(std::find(recency.begin(), recency.end(), key));
            recency.insert(recency.begin(), key);
        } else {
            std::uint64_t value = rng();
            cache.put(key, value);
            if (ref.size() >= kCap) {
                ref.erase(recency.back());
                recency.pop_back();
            }
            ref[key] = value;
            recency.insert(recency.begin(), key);
        }
    }
}

/** The list + hash-map LRU that LruCache replaced, kept as the
 *  reference for its flat-array rewrite. */
class ListLru
{
  public:
    explicit ListLru(std::size_t capacity) : capacity_(capacity) {}

    std::uint64_t *
    get(std::uint64_t key)
    {
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses;
            return nullptr;
        }
        order_.splice(order_.begin(), order_, it->second);
        ++hits;
        return &it->second->second;
    }

    bool contains(std::uint64_t key) const { return map_.contains(key); }

    const std::uint64_t *
    peek(std::uint64_t key) const
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second->second;
    }

    void
    put(std::uint64_t key, std::uint64_t value)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->second = value;
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        if (map_.size() >= capacity_) {
            map_.erase(order_.back().first);
            order_.pop_back();
            ++evictions;
        }
        order_.emplace_front(key, value);
        map_[key] = order_.begin();
    }

    std::size_t size() const { return map_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    using Order = std::list<std::pair<std::uint64_t, std::uint64_t>>;
    std::size_t capacity_;
    Order order_;
    std::unordered_map<std::uint64_t, Order::iterator> map_;
};

class LruDifferentialTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LruDifferentialTest, MatchesListLruWithCollidingKeys)
{
    const std::size_t capacity = GetParam();
    LruCache<std::uint64_t, std::uint64_t> cache(capacity);
    ListLru ref(capacity);

    // Keys in clusters that share a home bucket, some at the top of
    // the index so probe runs wrap, plus scattered keys: evictions then
    // delete from the middle of long probe runs, which is what the
    // backward shift has to get right. The index has the smallest
    // power of two >= 2 x capacity buckets.
    std::size_t index_size = 1;
    while (index_size < 2 * capacity)
        index_size *= 2;
    const std::size_t homes[] = {0, 1, index_size / 2, index_size - 1};
    const std::size_t cluster = capacity / 2 + 3;
    std::vector<std::size_t> per_home(index_size, 0);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < (cluster + 8) * index_size; ++k) {
        std::size_t home = cache.homeOf(k);
        ASSERT_LT(home, index_size);
        bool clustered = std::find(std::begin(homes), std::end(homes),
                                   home) != std::end(homes);
        if ((clustered && per_home[home] < cluster) ||
            (!clustered && k % 7 == 0 && per_home[home] == 0)) {
            ++per_home[home];
            keys.push_back(k);
        }
    }
    std::size_t collisions = 0;
    for (std::size_t same : per_home)
        collisions += same > 1 ? same - 1 : 0;
    ASSERT_GT(keys.size(), capacity + 1);
    ASSERT_GT(collisions, capacity / 2);

    // Every key the reference holds is reachable with its value, and
    // no other key is: a broken backward shift strands keys behind a
    // hole or leaves stale index entries.
    auto expectSameContents = [&](int step) {
        for (std::uint64_t key : keys) {
            ASSERT_EQ(cache.contains(key), ref.contains(key))
                << "key " << key << " step " << step;
            if (ref.contains(key)) {
                ASSERT_EQ(*cache.peek(key), *ref.peek(key)) << key;
            }
        }
    };
    const int check_every =
        static_cast<int>(std::min<std::size_t>(capacity, 64));
    Rng rng(capacity * 7 + 1);
    for (int step = 0; step < 40'000; ++step) {
        std::uint64_t key = keys[rng.uniformInt(keys.size())];
        switch (rng.uniformInt(4)) {
          case 0: {
            std::uint64_t *got = cache.get(key);
            std::uint64_t *want = ref.get(key);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (want) {
                ASSERT_EQ(*got, *want) << "step " << step;
            }
            break;
          }
          case 1:
            ASSERT_EQ(cache.contains(key), ref.contains(key))
                << "step " << step;
            break;
          default: {
            std::uint64_t value = rng();
            cache.put(key, value);
            ref.put(key, value);
            break;
          }
        }
        ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
        if (step % check_every == 0) {
            ASSERT_NO_FATAL_FAILURE(expectSameContents(step));
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.evictions(), ref.evictions);
    EXPECT_GT(ref.evictions, 0u);
    expectSameContents(40'000);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruDifferentialTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{7},
                                           std::size_t{2048}));

class SetAssocLruTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SetAssocLruTest, HitsAfterInsert)
{
    unsigned ways = GetParam();
    SetAssocLru cache(64 * ways / ways * ways, ways);
    EXPECT_FALSE(cache.access(5));
    EXPECT_TRUE(cache.access(5));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_P(SetAssocLruTest, WorkingSetWithinCapacityAlwaysHits)
{
    unsigned ways = GetParam();
    SetAssocLru cache(256, ways);
    // A tiny working set re-accessed in a loop must stabilize at
    // 100% hits regardless of associativity. Warm the set first.
    for (std::uint64_t k = 0; k < 8; ++k)
        cache.access(k);
    cache.resetStats();
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t k = 0; k < 8; ++k)
            cache.access(k);
    }
    EXPECT_EQ(cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, SetAssocLruTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(SetAssocLru, FullyAssocMatchesLruSemantics)
{
    SetAssocLru cache(4, 4);  // one set of 4 ways = fully associative
    for (std::uint64_t k : {1, 2, 3, 4})
        cache.access(k);
    cache.access(1);   // 2 is now LRU
    cache.access(5);   // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(5));
}

TEST(PageCache, LookupInsertInvalidate)
{
    PageCache cache(16, 4);
    Ppn out = 0;
    EXPECT_FALSE(cache.lookup(1, out));
    cache.insert(1, 100);
    EXPECT_TRUE(cache.lookup(1, out));
    EXPECT_EQ(out, 100u);
    cache.insert(1, 200);  // update in place
    EXPECT_TRUE(cache.lookup(1, out));
    EXPECT_EQ(out, 200u);
    cache.invalidate(1);
    EXPECT_FALSE(cache.lookup(1, out));
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PageCacheDeathTest, BadGeometryPanics)
{
    EXPECT_DEATH(PageCache(10, 4), "multiple of ways");
}

TEST(HostEmbeddingCache, PerTableIsolation)
{
    HostEmbeddingCache cache(2);
    auto put = [&cache](std::uint32_t table, RowId row, float v) {
        cache.fill(table, row, 1, [v](std::span<float> out) { out[0] = v; });
    };
    put(0, 5, 1.0f);
    put(1, 5, 2.0f);
    EXPECT_EQ(cache.get(0, 5)[0], 1.0f);
    EXPECT_EQ(cache.get(1, 5)[0], 2.0f);
    // Capacity is per table: filling table 0 leaves table 1 alone.
    put(0, 6, 3.0f);
    put(0, 7, 4.0f);  // evicts row 5 of table 0
    EXPECT_EQ(cache.get(0, 5), nullptr);
    EXPECT_NE(cache.get(1, 5), nullptr);
}

TEST(HostEmbeddingCache, AggregatedStats)
{
    HostEmbeddingCache cache(4);
    cache.get(0, 1);
    cache.fill(0, 1, 1, [](std::span<float> out) { out[0] = 1.0f; });
    cache.get(0, 1);
    cache.get(1, 9);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NEAR(cache.hitRate(), 1.0 / 3.0, 1e-9);
    cache.resetStats();
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(StaticPartition, KeepsHottestRows)
{
    StaticPartition part(2);
    for (int i = 0; i < 10; ++i)
        part.profile(0, 1);
    for (int i = 0; i < 5; ++i)
        part.profile(0, 2);
    part.profile(0, 3);
    part.build([](std::uint32_t, RowId row) {
        return std::vector<float>{static_cast<float>(row)};
    });
    EXPECT_TRUE(part.built());
    EXPECT_EQ(part.residentRows(0), 2u);
    EXPECT_NE(part.lookup(0, 1), nullptr);
    EXPECT_NE(part.lookup(0, 2), nullptr);
    EXPECT_EQ(part.lookup(0, 3), nullptr);
    EXPECT_EQ(part.hits(), 2u);
    EXPECT_EQ(part.misses(), 1u);
}

TEST(StaticPartition, ValuesComeFromProvider)
{
    StaticPartition part(1);
    part.profile(7, 42);
    part.build([](std::uint32_t table, RowId row) {
        return std::vector<float>{static_cast<float>(table * 1000 + row)};
    });
    EXPECT_EQ((*part.lookup(7, 42))[0], 7042.0f);
}

TEST(StaticPartitionDeathTest, LookupBeforeBuildPanics)
{
    StaticPartition part(1);
    EXPECT_DEATH(part.lookup(0, 0), "not built");
}

TEST(StaticPartitionDeathTest, ProfileAfterBuildPanics)
{
    StaticPartition part(1);
    part.profile(0, 0);
    part.build([](std::uint32_t, RowId) { return std::vector<float>{}; });
    EXPECT_DEATH(part.profile(0, 1), "frozen");
}

}  // namespace
}  // namespace recssd
