#include "src/shard/shard_router.h"

#include <algorithm>

#include "src/common/logging.h"

namespace recssd
{

namespace
{

/** splitmix64 finalizer: spreads consecutive table ids over shards. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Rows of shard `s` under the balanced contiguous split. */
std::uint64_t
rangeRows(std::uint64_t rows, unsigned shards, unsigned s)
{
    std::uint64_t base = rows / shards;
    std::uint64_t extra = rows % shards;
    return base + (s < extra ? 1 : 0);
}

/** Global first row of shard `s` under the balanced contiguous split. */
std::uint64_t
rangeFirst(std::uint64_t rows, unsigned shards, unsigned s)
{
    std::uint64_t base = rows / shards;
    std::uint64_t extra = rows % shards;
    if (s < extra)
        return std::uint64_t(s) * (base + 1);
    return extra * (base + 1) + (std::uint64_t(s) - extra) * base;
}

}  // namespace

const char *
shardPolicyName(ShardPolicy policy)
{
    return policy == ShardPolicy::TableHash ? "hash" : "range";
}

ShardRouter::ShardRouter(const ShardConfig &config) : config_(config)
{
    recssd_assert(config_.numShards > 0, "need at least one shard");
}

unsigned
ShardRouter::shardOfTable(std::uint32_t table_id) const
{
    return static_cast<unsigned>(mix64(table_id) % config_.numShards);
}

const ShardedTable &
ShardRouter::addTable(const EmbeddingTableDesc &global,
                      const std::function<Lpn(unsigned shard)> &alloc_base)
{
    recssd_assert(!knows(global.id), "table %u sharded twice", global.id);
    recssd_assert(global.rowBase == 0, "global table with a row base");
    ShardedTable st;
    st.global = global;

    // R-way replication: each slice's copies land on the R-1 devices
    // following its primary (mod N), allocated right after the
    // primary so the allocation order at replication=1 is exactly the
    // seed's. Replica descs share the primary's rows/rowBase, so the
    // synthetic content generated from (table, global row) is
    // bit-identical on every copy.
    unsigned repl = replication();
    auto addReplicas = [&](ShardSlice &slice) {
        for (unsigned r = 1; r < repl; ++r) {
            ReplicaSlice rep;
            rep.shard = (slice.shard + r) % config_.numShards;
            rep.desc = slice.desc;
            rep.desc.baseLpn = alloc_base(rep.shard);
            slice.replicas.push_back(std::move(rep));
        }
    };

    if (config_.policy == ShardPolicy::TableHash ||
        config_.numShards == 1) {
        unsigned shard =
            config_.numShards == 1 ? 0 : shardOfTable(global.id);
        ShardSlice slice;
        slice.shard = shard;
        slice.firstRow = 0;
        slice.desc = global;
        slice.desc.baseLpn = alloc_base(shard);
        addReplicas(slice);
        st.slices.push_back(std::move(slice));
    } else {
        for (unsigned s = 0; s < config_.numShards; ++s) {
            std::uint64_t rows = rangeRows(global.rows, config_.numShards,
                                           s);
            if (rows == 0)
                continue;  // more shards than rows
            ShardSlice slice;
            slice.shard = s;
            slice.firstRow = rangeFirst(global.rows, config_.numShards, s);
            slice.desc = global;
            slice.desc.rows = rows;
            slice.desc.rowBase = slice.firstRow;
            slice.desc.baseLpn = alloc_base(s);
            addReplicas(slice);
            st.slices.push_back(std::move(slice));
        }
    }
    recssd_assert(!st.slices.empty(), "table %u has no slices", global.id);
    // The global view advertises the home slice's base so a
    // single-slice placement can serve ops built against it directly
    // (and N=1 reproduces the seed's allocation exactly).
    st.global.baseLpn = st.slices.front().desc.baseLpn;
    return tables_.emplace(global.id, std::move(st)).first->second;
}

const ShardedTable &
ShardRouter::tableOf(std::uint32_t table_id) const
{
    auto it = tables_.find(table_id);
    recssd_assert(it != tables_.end(), "unknown sharded table %u",
                  table_id);
    return it->second;
}

unsigned
ShardRouter::shardOf(const EmbeddingTableDesc &global, RowId row) const
{
    recssd_assert(row < global.rows, "row %llu outside table %u",
                  static_cast<unsigned long long>(row), global.id);
    if (config_.policy == ShardPolicy::TableHash || config_.numShards == 1)
        return config_.numShards == 1 ? 0 : shardOfTable(global.id);
    std::uint64_t base = global.rows / config_.numShards;
    std::uint64_t extra = global.rows % config_.numShards;
    std::uint64_t boundary = extra * (base + 1);
    if (row < boundary)
        return static_cast<unsigned>(row / (base + 1));
    return static_cast<unsigned>(extra + (row - boundary) / base);
}

std::vector<ShardRouter::OpSlice>
ShardRouter::split(const SlsOp &op) const
{
    recssd_assert(op.table != nullptr, "split of a table-less op");
    const ShardedTable &st = tableOf(op.table->id);

    std::vector<OpSlice> out;
    // Slice index by shard id, built lazily in shard order so the
    // scatter order is deterministic.
    std::vector<int> slot(config_.numShards, -1);
    auto sliceFor = [&](unsigned shard) -> OpSlice & {
        if (slot[shard] < 0) {
            slot[shard] = static_cast<int>(out.size());
            const ShardSlice *slice = nullptr;
            for (const auto &s : st.slices)
                if (s.shard == shard)
                    slice = &s;
            recssd_assert(slice != nullptr, "row routed to empty shard");
            OpSlice o;
            o.shard = shard;
            o.desc = &slice->desc;
            o.slice = slice;
            o.indices.assign(op.batch(), {});
            out.push_back(std::move(o));
        }
        return out[static_cast<std::size_t>(slot[shard])];
    };

    for (std::size_t b = 0; b < op.indices.size(); ++b) {
        for (RowId row : op.indices[b]) {
            unsigned shard = shardOf(st.global, row);
            OpSlice &o = sliceFor(shard);
            std::vector<RowId> &bag = o.indices[b];
            // One allocation per bag: a single-slice table (TableHash,
            // or one device) takes every row of it.
            if (bag.empty())
                bag.reserve(op.indices[b].size());
            bag.push_back(row - o.desc->rowBase);
            ++o.lookups;
        }
    }
    // Deterministic scatter order: shard id, not first-appearance.
    std::sort(out.begin(), out.end(),
              [](const OpSlice &a, const OpSlice &b) {
                  return a.shard < b.shard;
              });
    return out;
}

std::vector<ShardRouter::UpdateTarget>
ShardRouter::updateTargets(std::uint32_t table_id, RowId row) const
{
    const ShardedTable &table = tableOf(table_id);
    recssd_assert(row < table.global.rows, "row %llu outside table %u",
                  static_cast<unsigned long long>(row), table_id);

    const ShardSlice *owner = nullptr;
    for (const ShardSlice &slice : table.slices) {
        if (row >= slice.firstRow && row < slice.firstRow + slice.desc.rows) {
            owner = &slice;
            break;
        }
    }
    recssd_assert(owner != nullptr, "row %llu of table %u has no slice",
                  static_cast<unsigned long long>(row), table_id);

    RowId local = row - owner->firstRow;
    std::vector<UpdateTarget> out;
    out.reserve(1 + owner->replicas.size());
    out.push_back({owner->shard, &owner->desc, local, false});
    for (const ReplicaSlice &replica : owner->replicas)
        out.push_back({replica.shard, &replica.desc, local, true});
    return out;
}

}  // namespace recssd
