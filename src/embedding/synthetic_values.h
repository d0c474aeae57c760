/**
 * @file
 * Deterministic synthetic embedding values.
 *
 * Every backend — host DRAM, baseline SSD, NDP — must produce exactly
 * the same sums, so table content is a pure function of
 * (table id, row, element): a hash reduced to a small non-negative
 * integer. Integer-valued floats make fp32 accumulation exact and
 * order independent for the pooling factors the models use, which is
 * what lets the tests demand bit-identical results across backends.
 */

#ifndef RECSSD_EMBEDDING_SYNTHETIC_VALUES_H
#define RECSSD_EMBEDDING_SYNTHETIC_VALUES_H

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/flash/data_store.h"
#include "src/embedding/embedding_table.h"

namespace recssd
{

namespace synthetic
{

/** Value of one embedding element; integer in [0, 16). */
float value(std::uint32_t table_id, RowId row, std::uint32_t element);

/** Encode one full vector at the table's attribute size. */
void fillVector(const EmbeddingTableDesc &desc, RowId row,
                std::span<std::byte> out);

/** Write a row's `dim` fp32 values into `out`. */
void rowValues(const EmbeddingTableDesc &desc, RowId row,
               std::span<float> out);

/** Decoded fp32 vector of a row. */
std::vector<float> vectorOf(const EmbeddingTableDesc &desc, RowId row);

/**
 * Exact expected SLS sum for a batch of index lists — the reference
 * the tests compare every backend against.
 */
std::vector<float>
expectedSls(const EmbeddingTableDesc &desc,
            const std::vector<std::vector<RowId>> &indices);

/**
 * DataStore generator serving the table's pages, honoring layout
 * (rowsPerPage) and arbitrary byte sub-ranges.
 */
DataStore::Generator makeGenerator(const EmbeddingTableDesc &desc);

/**
 * Deterministic content of one element after `version` committed
 * online updates of its row (version 0 = the pristine install). Like
 * `value`, results are small integer-valued floats, so attribute
 * encoding and fp32 accumulation stay exact and every layer — the
 * update stream producing the write payload, a DRAM replica applying
 * the same update, and a test predicting the post-update sum — derives
 * identical bytes independently.
 */
float updatedValue(std::uint32_t table_id, RowId row, std::uint32_t element,
                   std::uint64_t version);

/** Decoded fp32 vector of a (table-local) row after `version` updates. */
std::vector<float> updatedVector(const EmbeddingTableDesc &desc, RowId row,
                                 std::uint64_t version);

}  // namespace synthetic

}  // namespace recssd

#endif  // RECSSD_EMBEDDING_SYNTHETIC_VALUES_H
