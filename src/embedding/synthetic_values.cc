#include "src/embedding/synthetic_values.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/ndp/attr_codec.h"

namespace recssd
{

namespace synthetic
{

namespace
{

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Hash input shared by every element of one row. */
std::uint64_t
rowSeed(std::uint32_t table_id, RowId row)
{
    return (std::uint64_t(table_id) << 48) ^ (row << 12);
}

}  // namespace

float
value(std::uint32_t table_id, RowId row, std::uint32_t element)
{
    return static_cast<float>(mix(rowSeed(table_id, row) ^ element) & 0xF);
}

void
fillVector(const EmbeddingTableDesc &desc, RowId row,
           std::span<std::byte> out)
{
    recssd_assert(out.size() >= desc.vectorBytes(),
                  "output smaller than vector");
    // The row's hash seed is hoisted out of the element loop.
    const std::uint64_t seed = rowSeed(desc.id, desc.globalRow(row));
    encodeAttrs(out, desc.dim, desc.attrBytes, [seed](std::uint32_t e) {
        return static_cast<float>(mix(seed ^ e) & 0xF);
    });
}

void
rowValues(const EmbeddingTableDesc &desc, RowId row, std::span<float> out)
{
    recssd_assert(out.size() >= desc.dim, "output smaller than vector");
    const std::uint64_t seed = rowSeed(desc.id, desc.globalRow(row));
    for (std::uint32_t e = 0; e < desc.dim; ++e)
        out[e] = static_cast<float>(mix(seed ^ e) & 0xF);
}

std::vector<float>
vectorOf(const EmbeddingTableDesc &desc, RowId row)
{
    std::vector<float> v(desc.dim);
    rowValues(desc, row, v);
    return v;
}

std::vector<float>
expectedSls(const EmbeddingTableDesc &desc,
            const std::vector<std::vector<RowId>> &indices)
{
    std::vector<float> out(indices.size() * desc.dim, 0.0f);
    for (std::size_t b = 0; b < indices.size(); ++b) {
        for (RowId row : indices[b]) {
            for (std::uint32_t e = 0; e < desc.dim; ++e)
                out[b * desc.dim + e] +=
                    value(desc.id, desc.globalRow(row), e);
        }
    }
    return out;
}

float
updatedValue(std::uint32_t table_id, RowId row, std::uint32_t element,
             std::uint64_t version)
{
    if (version == 0)
        return value(table_id, row, element);
    std::uint64_t h = mix((std::uint64_t(table_id) << 48) ^ (row << 12) ^
                          element ^ (version * 0x9e3779b97f4a7c15ull));
    return static_cast<float>(h & 0xF);
}

std::vector<float>
updatedVector(const EmbeddingTableDesc &desc, RowId row,
              std::uint64_t version)
{
    std::vector<float> v(desc.dim);
    for (std::uint32_t e = 0; e < desc.dim; ++e)
        v[e] = updatedValue(desc.id, desc.globalRow(row), e, version);
    return v;
}

DataStore::Generator
makeGenerator(const EmbeddingTableDesc &desc)
{
    // Copy the descriptor; the generator may outlive the caller's.
    EmbeddingTableDesc d = desc;
    return [d](std::uint64_t page_in_region, std::size_t offset,
               std::span<std::byte> out) {
        const std::uint32_t vec_bytes = d.vectorBytes();
        std::size_t end = offset + out.size();
        std::uint32_t first_slot =
            static_cast<std::uint32_t>(offset / vec_bytes);
        std::uint32_t last_slot =
            static_cast<std::uint32_t>((end + vec_bytes - 1) / vec_bytes);
        for (std::uint32_t slot = first_slot; slot < last_slot; ++slot) {
            RowId row = page_in_region * d.rowsPerPage + slot;
            std::size_t slot_begin = std::size_t(slot) * vec_bytes;
            std::size_t from = std::max(offset, slot_begin);
            std::size_t to = std::min(end, slot_begin + vec_bytes);
            if (to <= from)
                continue;
            std::span<std::byte> dst = out.subspan(from - offset, to - from);
            if (slot >= d.rowsPerPage || row >= d.rows) {
                // Page tail padding / rows past the end: zero fill.
                std::ranges::fill(dst, std::byte{0});
                continue;
            }
            if (dst.size() == vec_bytes) {
                // The common case, a whole vector: encode in place.
                fillVector(d, row, dst);
                continue;
            }
            // A vector cut by the range: encode the elements that
            // overlap it one at a time and keep their in-range bytes.
            for (std::uint32_t e = 0; e < d.dim; ++e) {
                std::size_t elem_begin = slot_begin + std::size_t(e) *
                                                          d.attrBytes;
                std::size_t elem_end = elem_begin + d.attrBytes;
                if (elem_end <= from || elem_begin >= to)
                    continue;
                std::byte elem[4];
                encodeAttr(elem, 0, d.attrBytes,
                           value(d.id, d.globalRow(row), e));
                std::size_t lo = std::max(from, elem_begin);
                std::size_t hi = std::min(to, elem_end);
                std::memcpy(out.data() + (lo - offset),
                            elem + (lo - elem_begin), hi - lo);
            }
        }
    };
}

}  // namespace synthetic

}  // namespace recssd
