/**
 * @file
 * The SparseLengthsSum operator abstraction.
 *
 * One `SlsOp` gathers and sum-pools embedding vectors from a single
 * table for a batch of requests — the Caffe2 operator the paper
 * offloads. Three interchangeable backends implement it:
 *
 *  - `DramSlsBackend`: tables resident in host DRAM (the paper's
 *    DRAM baseline, Caffe2-style).
 *  - `BaselineSsdSlsBackend`: tables on the SSD behind conventional
 *    NVMe page reads, optionally with the host LRU software cache.
 *  - `NdpSlsBackend`: RecSSD — the whole gather/reduce offloaded to
 *    the FTL, optionally post-processed against a static host
 *    partition.
 *
 * Backends are asynchronous: latency is simulated, results are real.
 */

#ifndef RECSSD_EMBEDDING_SLS_BACKEND_H
#define RECSSD_EMBEDDING_SLS_BACKEND_H

#include <string>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/types.h"
#include "src/embedding/embedding_table.h"

namespace recssd
{

/** One pooled-embedding operation on one table. */
struct SlsOp
{
    const EmbeddingTableDesc *table = nullptr;
    /** indices[b] = rows summed into result b. */
    std::vector<std::vector<RowId>> indices;
    /** Observability: owning trace request id (0 = untraced). */
    std::uint64_t traceId = 0;

    std::size_t batch() const { return indices.size(); }

    std::size_t
    totalLookups() const
    {
        std::size_t n = 0;
        for (const auto &list : indices)
            n += list.size();
        return n;
    }
};

/** batch x dim pooled results, row-major. */
using SlsResult = std::vector<float>;

class SlsBackend
{
  public:
    using Done = InlineFunction<void(SlsResult)>;

    virtual ~SlsBackend() = default;

    /**
     * Launch the operation; `done` fires (on the event queue) when
     * the pooled result is available to the host. Multiple operations
     * may be in flight concurrently; backends contend for the shared
     * host cores, driver queues and the device.
     */
    virtual void run(const SlsOp &op, Done done) = 0;

    /** Human-readable backend name for reports. */
    virtual std::string name() const = 0;
};

}  // namespace recssd

#endif  // RECSSD_EMBEDDING_SLS_BACKEND_H
