/**
 * @file
 * Conventional-SSD SLS backend (the paper's baseline).
 *
 * Embedding tables live on the SSD behind the standard NVMe block
 * interface. The host operator walks the batch's lookups, serves what
 * it can from the optional fully associative host LRU cache, groups
 * the remaining lookups by logical page (a 16KB page holding several
 * vectors is fetched once and all its vectors extracted — the
 * streaming behaviour §6.1 describes for sequential inputs), and
 * issues one NVMe read per distinct page from worker chains matched
 * to the driver I/O queues (§4.2). Extraction and accumulation burn
 * host CPU.
 */

#ifndef RECSSD_EMBEDDING_BASELINE_BACKEND_H
#define RECSSD_EMBEDDING_BASELINE_BACKEND_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/cache/host_embedding_cache.h"
#include "src/common/event_queue.h"
#include "src/common/stats.h"
#include "src/embedding/sls_backend.h"
#include "src/host/host_cpu.h"
#include "src/host/queue_allocator.h"
#include "src/host/unvme_driver.h"

namespace recssd
{

class BaselineSsdSlsBackend : public SlsBackend
{
  public:
    struct Options
    {
        /** Host LRU embedding cache; nullptr disables caching. */
        HostEmbeddingCache *hostCache = nullptr;
        /** Concurrent worker chains; 0 = one per I/O queue. */
        unsigned maxWorkers = 0;
        /**
         * Fetch each distinct page once per operation (default). The
         * false setting issues one read per lookup — an ablation of
         * the naive operator.
         */
        bool coalescePages = true;
    };

    BaselineSsdSlsBackend(EventQueue &eq, HostCpu &cpu, UnvmeDriver &driver,
                          QueueAllocator &queues, Options options);

    void run(const SlsOp &op, Done done) override;
    std::string name() const override { return "ssd-base"; }

    std::uint64_t pageReadsIssued() const { return pageReads_.value(); }
    std::uint64_t cacheServed() const { return cacheServed_.value(); }

  private:
    struct OpState;

    /** @{ Planning: the index of a new page, and of `lpn`'s page
     *  (added on first sight, found through `pageIndex_`). */
    static std::uint32_t addPage(OpState &state, Lpn lpn);
    std::uint32_t pageOf(OpState &state, Lpn lpn);
    /** @} */

    /** Advance one worker chain: fetch + process the next page. */
    void pump(const std::shared_ptr<OpState> &state, unsigned q);

    /** Page `task`'s DMA landed: extract its lookups' vectors, then
     *  charge the extract work and accumulate them. */
    void extract(const std::shared_ptr<OpState> &state, std::uint32_t task,
                 unsigned q, const PageView &view);

    EventQueue &eq_;
    HostCpu &cpu_;
    UnvmeDriver &driver_;
    QueueAllocator &queues_;
    Options options_;

    /** @{ Scratch reused by every op: the open-addressing (lpn, page)
     *  index while an op is planned, and one vector's raw bytes while
     *  a page is extracted. */
    std::vector<std::pair<Lpn, std::uint32_t>> pageIndex_;
    std::vector<std::byte> raw_;
    /** @} */

    Counter pageReads_;
    Counter cacheServed_;
};

}  // namespace recssd

#endif  // RECSSD_EMBEDDING_BASELINE_BACKEND_H
