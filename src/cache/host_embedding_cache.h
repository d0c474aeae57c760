/**
 * @file
 * Host DRAM software cache of embedding vectors.
 *
 * Fully associative LRU, sized per table (§5: "host-side DRAM caches
 * store up to 2K entries per embedding table"). Used by the baseline
 * SSD path; the NDP path cannot use it (the device returns accumulated
 * sums, not raw vectors — §4.2) and relies on static partitioning
 * instead.
 *
 * Each table's rows live in one flat array of `entries x dim` floats
 * that is sized at the table's first fill; an LRU slot keeps its
 * stretch of that array for life, so filling a row after an eviction
 * overwrites the evicted row's floats in place.
 *
 * Coherence with online updates: a committed update overwrites a
 * cached copy in place (write-update) and is remembered, so a later
 * miss fills the row with its updated content rather than the
 * installed one. Hit and miss decisions never depend on updates.
 */

#ifndef RECSSD_CACHE_HOST_EMBEDDING_CACHE_H
#define RECSSD_CACHE_HOST_EMBEDDING_CACHE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/common/logging.h"
#include "src/common/types.h"

namespace recssd
{

class HostEmbeddingCache
{
  public:
    /** @param entries_per_table LRU capacity for each table. */
    explicit HostEmbeddingCache(std::size_t entries_per_table);

    /** Fetch a cached row's `dim` floats (promotes). @return nullptr
     *  on miss. */
    const float *get(std::uint32_t table_id, RowId row);

    /**
     * Cache a row the caller is fetching from the SSD: make it the
     * table's MRU row, evicting the LRU row at capacity, and fill it
     * with the row's live content. That is the last update applied
     * through `applyUpdate`, or, for a row never updated, what
     * `pristine(std::span<float>)` writes: its installed content.
     */
    template <typename Pristine>
    void
    fill(std::uint32_t table_id, RowId row, std::uint32_t dim,
         Pristine &&pristine)
    {
        std::span<float> out(slotFor(table_id, row, dim), dim);
        if (!updated_.empty()) {
            auto it = updated_.find({table_id, row});
            if (it != updated_.end()) {
                recssd_assert(it->second.size() == dim,
                              "update width does not match the row");
                std::ranges::copy(it->second, out.begin());
                return;
            }
        }
        pristine(out);
    }

    /**
     * A row update committed on the SSD: overwrite a cached copy in
     * place (neither promoting nor counting) and remember the content
     * for later fills.
     */
    void applyUpdate(std::uint32_t table_id, RowId row,
                     std::span<const float> values);

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    double hitRate() const;
    void resetStats();

    std::size_t entriesPerTable() const { return entriesPerTable_; }

  private:
    struct TableCache
    {
        explicit TableCache(std::size_t entries) : lru(entries) {}

        /** Row -> its `dim` floats in `values`. */
        LruCache<RowId, float *> lru;
        /** entries x dim floats, sized at the first fill. */
        std::vector<float> values;
        std::uint32_t dim = 0;
        /** Slots handed a stretch of `values` so far. */
        std::size_t slotsUsed = 0;
    };

    TableCache &tableCache(std::uint32_t table_id);

    /** The MRU slot of `row`, evicting at capacity. */
    float *slotFor(std::uint32_t table_id, RowId row, std::uint32_t dim);

    std::size_t entriesPerTable_;
    /** Indexed by table id; created on first use. */
    std::vector<std::unique_ptr<TableCache>> tables_;
    /** (table id, row) -> content of every row updated so far. Empty
     *  in update-free runs, whose fills never look here. */
    std::map<std::pair<std::uint32_t, RowId>, std::vector<float>> updated_;
};

}  // namespace recssd

#endif  // RECSSD_CACHE_HOST_EMBEDDING_CACHE_H
