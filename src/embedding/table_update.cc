#include "src/embedding/table_update.h"

#include <memory>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/ndp/attr_codec.h"
#include "src/obs/tracer.h"

namespace recssd
{

namespace
{

void
patchSlot(std::vector<std::byte> &page, const EmbeddingTableDesc &table,
          RowId row, std::span<const float> values)
{
    std::span<std::byte> slot(page.data() + table.pageOffsetOf(row),
                              table.vectorBytes());
    for (std::uint32_t e = 0; e < table.dim; ++e)
        encodeAttr(slot, e, table.attrBytes, values[e]);
}

}  // namespace

void
updateRow(UnvmeDriver &driver, QueueAllocator &queues,
          const EmbeddingTableDesc &table, RowId row,
          std::span<const float> values, InlineFunction<void()> done,
          std::uint64_t trace_id, HostEmbeddingCache *host_cache)
{
    recssd_assert(row < table.rows, "row out of range");
    recssd_assert(values.size() == table.dim,
                  "value width does not match the table");
    Lpn lpn = table.lpnOf(row);
    auto desc = table;
    auto vals = std::vector<float>(values.begin(), values.end());

    EventQueue &eq = driver.eventQueue();
    SpanId wait_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq)) {
        wait_span = tracer->begin(tracer->track("host.update"), "queue_wait",
                                  Phase::HostQueueWait, trace_id);
    }
    queues.acquire([&driver, &queues, &eq, desc, row, lpn, wait_span,
                    trace_id, host_cache, vals = std::move(vals),
                    done = std::move(done)](unsigned queue) mutable {
        RECSSD_CAPTURES_MAPPING("driver/queues/eq are the caller's "
                                "long-lived host objects; applyUpdate's "
                                "contract requires them to outlive the "
                                "update completion");
        if (Tracer *tracer = tracerOf(eq))
            tracer->end(wait_span);
        // Only a host cache needs the values again at completion.
        auto finish = [&queues, queue, host_cache, id = desc.id,
                       global_row = desc.globalRow(row),
                       cached = host_cache ? vals : std::vector<float>{},
                       done = std::move(done)]() {
            if (host_cache)
                host_cache->applyUpdate(id, global_row, cached);
            queues.release(queue);
            if (done)
                done();
        };

        if (desc.rowsPerPage == 1) {
            // The row owns the page: write directly.
            auto page = std::make_shared<std::vector<std::byte>>(
                driver.pageSize(), std::byte{0});
            patchSlot(*page, desc, row, vals);
            driver.writePage(queue, lpn, std::move(page), std::move(finish),
                             trace_id);
            return;
        }

        // Packed layout: read-modify-write the shared page, holding the
        // queue across both commands so nothing interleaves on it.
        driver.readPage(
            queue, lpn,
            [&driver, queue, desc, row, lpn, trace_id,
             vals = std::move(vals),
             finish = std::move(finish)](const PageView &view) mutable {
                RECSSD_CAPTURES_MAPPING("driver outlives the held queue "
                                        "slot; released only via finish");
                // The one copy of the RMW: the write below hands this
                // buffer down to the flash page by reference.
                auto page = view.copyPage();
                patchSlot(*page, desc, row, vals);
                driver.writePage(queue, lpn, std::move(page),
                                 std::move(finish), trace_id);
            },
            trace_id);
    });
}

}  // namespace recssd
