/**
 * @file
 * PCIe link timing model.
 *
 * A single full-duplex-approximated serial resource: transfers occupy
 * the link for bytes/bandwidth and complete one propagation latency
 * later. Command fetches and completion postings are small (64B/16B)
 * transfers plus the same latency.
 */

#ifndef RECSSD_NVME_PCIE_LINK_H
#define RECSSD_NVME_PCIE_LINK_H

#include <cstdint>
#include <string>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/resource.h"
#include "src/common/types.h"
#include "src/obs/phase.h"
#include "src/obs/tracer.h"

namespace recssd
{

struct PcieParams
{
    /** Effective data bandwidth (PCIe Gen2 x8 board, ~1.6GB/s). */
    std::uint64_t bytesPerSec = 1600ull * 1000 * 1000;
    /** One-way propagation + root-complex latency. */
    Tick latency = 1 * usec;
};

class PcieLink
{
  public:
    /** `track_prefix` namespaces this link's trace track (multi-SSD
     *  systems pass "ssd<d>." so per-device spans stay separable). */
    PcieLink(EventQueue &eq, const PcieParams &params,
             const std::string &track_prefix = "");

    /**
     * Move `bytes` across the link; `done` fires on arrival. The
     * optional trace id tags the transfer's span with its owning
     * request; `phase` distinguishes plain transport from result DMA.
     */
    void transfer(std::uint64_t bytes, EventQueue::Callback done,
                  std::uint64_t trace_id = 0,
                  Phase phase = Phase::NvmeXfer);

    /** Link occupancy for a transfer of the given size. */
    Tick occupancy(std::uint64_t bytes) const;

    Tick busyTime() const { return link_.busyTime(); }
    std::uint64_t bytesMoved() const { return bytesMoved_; }
    const PcieParams &params() const { return params_; }

  private:
    /** In-flight transfer: occupancy, then propagation latency. */
    struct Transfer
    {
        EventQueue::Callback done;
        SpanId span = invalidSpan;
    };

    /** Occupancy done: start the propagation leg (or drop it). */
    void propagate(std::uint32_t op);

    EventQueue &eq_;
    PcieParams params_;
    std::string trackName_;
    SerialResource link_;
    std::uint64_t bytesMoved_ = 0;
    RecordPool<Transfer> transfers_;
};

}  // namespace recssd

#endif  // RECSSD_NVME_PCIE_LINK_H
