/**
 * @file
 * Online embedding-table updates over the standard block interface.
 *
 * Production recommendation models are retrained and their embedding
 * tables refreshed while serving. RecSSD needs no special support —
 * updates are ordinary NVMe writes — but the host must read-modify-
 * write the 16KB page and the device must keep its SLS embedding
 * cache coherent (the engine invalidates on every host write).
 * This helper performs one timed, functional row update.
 */

#ifndef RECSSD_EMBEDDING_TABLE_UPDATE_H
#define RECSSD_EMBEDDING_TABLE_UPDATE_H

#include <cstdint>
#include <span>

#include "src/cache/host_embedding_cache.h"
#include "src/common/inline_function.h"
#include "src/embedding/embedding_table.h"
#include "src/host/queue_allocator.h"
#include "src/host/unvme_driver.h"

namespace recssd
{

/**
 * Overwrite one row's vector in place.
 *
 * Packed layouts read the page first (RMW); the one-vector-per-page
 * layout writes directly. The new value is visible to every backend
 * on completion.
 *
 * The update competes for NVMe queues like any other host traffic: it
 * acquires a queue grant from `queues` (waiting behind serve traffic
 * when all queues are busy, with a `queue_wait` trace span), holds the
 * queue for the whole RMW so the per-queue depth gauges and
 * utilization timelines see the write, and releases it on completion.
 *
 * @param values New fp32 element values (encoded at the table's
 *        attribute size).
 * @param trace_id Owning trace request (0 = none); tags every span the
 *        update produces down the stack.
 * @param host_cache The host LRU the baseline backend reads through,
 *        if any: on completion it takes the new values (write-update),
 *        so it never serves the row's older content.
 */
void updateRow(UnvmeDriver &driver, QueueAllocator &queues,
               const EmbeddingTableDesc &table, RowId row,
               std::span<const float> values, InlineFunction<void()> done,
               std::uint64_t trace_id = 0,
               HostEmbeddingCache *host_cache = nullptr);

}  // namespace recssd

#endif  // RECSSD_EMBEDDING_TABLE_UPDATE_H
