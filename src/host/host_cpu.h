/**
 * @file
 * Host CPU model: a pool of cores plus cost helpers for the work the
 * recommendation stack performs on them (MLP GEMMs, DRAM embedding
 * gathers, driver submission/polling, vector extraction).
 */

#ifndef RECSSD_HOST_HOST_CPU_H
#define RECSSD_HOST_HOST_CPU_H

#include <cstdint>

#include "src/common/event_queue.h"
#include "src/common/resource.h"
#include "src/host/host_params.h"

namespace recssd
{

class HostCpu
{
  public:
    HostCpu(EventQueue &eq, const HostParams &params);

    const HostParams &params() const { return params_; }
    unsigned cores() const { return cores_.servers(); }

    /** Run `work` ticks on the earliest-free core. */
    Tick run(Tick work, EventQueue::Callback &&done)
    {
        return cores_.acquire(work, std::move(done));
    }

    Tick run(Tick work) { return cores_.acquire(work, nullptr); }

    /** @{ Cost helpers. */

    /** Time for a dense multiply-accumulate workload on one core. */
    Tick
    gemmCost(std::uint64_t macs) const
    {
        return static_cast<Tick>(static_cast<double>(macs) /
                                 params_.gemmMacsPerSec *
                                 static_cast<double>(sec));
    }

    /** One random embedding gather + accumulate from host DRAM. */
    Tick
    dramLookupCost(std::uint32_t vector_bytes) const
    {
        return params_.dramLookupBase +
               static_cast<Tick>(params_.dramPerByteNs * vector_bytes);
    }

    /** Locate + accumulate one vector out of a DMAed page. */
    Tick
    extractCost(std::uint32_t vector_bytes) const
    {
        return params_.extractBase +
               static_cast<Tick>(params_.extractPerByteNs * vector_bytes);
    }
    /** @} */

    Tick busyTime() const { return cores_.busyTime(); }

  private:
    HostParams params_;
    PoolResource cores_;
};

}  // namespace recssd

#endif  // RECSSD_HOST_HOST_CPU_H
