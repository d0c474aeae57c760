#include "src/cache/host_embedding_cache.h"

namespace recssd
{

HostEmbeddingCache::HostEmbeddingCache(std::size_t entries_per_table)
    : entriesPerTable_(entries_per_table)
{
    recssd_assert(entries_per_table > 0, "cache needs capacity");
}

HostEmbeddingCache::TableCache &
HostEmbeddingCache::tableCache(std::uint32_t table_id)
{
    if (table_id >= tables_.size())
        tables_.resize(std::size_t(table_id) + 1);
    auto &table = tables_[table_id];
    if (!table)
        table = std::make_unique<TableCache>(entriesPerTable_);
    return *table;
}

const float *
HostEmbeddingCache::get(std::uint32_t table_id, RowId row)
{
    float **slot = tableCache(table_id).lru.get(row);
    return slot ? *slot : nullptr;
}

float *
HostEmbeddingCache::slotFor(std::uint32_t table_id, RowId row,
                            std::uint32_t dim)
{
    TableCache &t = tableCache(table_id);
    if (t.values.empty()) {
        recssd_assert(dim > 0, "cached rows need a width");
        t.dim = dim;
        t.values.resize(entriesPerTable_ * dim);
    }
    recssd_assert(dim == t.dim, "table %u cached at two widths", table_id);
    float *&slot = t.lru.insert(row);
    if (slot == nullptr)
        slot = t.values.data() + t.slotsUsed++ * dim;
    return slot;
}

void
HostEmbeddingCache::applyUpdate(std::uint32_t table_id, RowId row,
                                std::span<const float> values)
{
    updated_[{table_id, row}].assign(values.begin(), values.end());
    if (table_id >= tables_.size() || !tables_[table_id])
        return;
    TableCache &t = *tables_[table_id];
    if (float **slot = t.lru.peek(row)) {
        recssd_assert(values.size() == t.dim,
                      "update width does not match the cached row");
        std::ranges::copy(values, *slot);
    }
}

std::uint64_t
HostEmbeddingCache::hits() const
{
    std::uint64_t total = 0;
    for (const auto &table : tables_)
        total += table ? table->lru.hits() : 0;
    return total;
}

std::uint64_t
HostEmbeddingCache::misses() const
{
    std::uint64_t total = 0;
    for (const auto &table : tables_)
        total += table ? table->lru.misses() : 0;
    return total;
}

double
HostEmbeddingCache::hitRate() const
{
    std::uint64_t h = hits();
    std::uint64_t total = h + misses();
    return total ? static_cast<double>(h) / total : 0.0;
}

void
HostEmbeddingCache::resetStats()
{
    for (auto &table : tables_) {
        if (table)
            table->lru.resetStats();
    }
}

}  // namespace recssd
