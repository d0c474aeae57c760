/**
 * @file
 * Queued-server resources for timing models.
 *
 * Most contention in the simulated machine is "a serial thing that
 * takes time per unit of work": the FTL microprocessor, the PCIe link,
 * a flash channel bus, a host CPU core. `SerialResource` models one
 * FIFO server; `PoolResource` models N identical servers fed from one
 * FIFO queue (e.g. host cores). Both report busy time so benches can
 * print utilization.
 */

#ifndef RECSSD_COMMON_RESOURCE_H
#define RECSSD_COMMON_RESOURCE_H

#include <string>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace recssd
{

/** Single FIFO server: requests occupy it back to back. */
class SerialResource
{
  public:
    SerialResource(EventQueue &eq, std::string name);

    /**
     * Enqueue `service` ticks of work; `done` fires when it completes.
     * Work starts at max(now, previous completion).
     * @return the completion tick.
     */
    Tick acquire(Tick service, EventQueue::Callback &&done)
        RECSSD_DEFERS_CALLBACK;

    /** Enqueue work with no completion callback. */
    Tick acquire(Tick service) { return acquire(service, nullptr); }

    /** Tick at which currently queued work finishes. */
    Tick freeAt() const { return freeAt_; }

    /** True if the server would start new work immediately. */
    bool idle() const { return freeAt_ <= eq_.now(); }

    /** Accumulated busy ticks (for utilization reporting). */
    Tick busyTime() const { return busy_; }

    const std::string &name() const { return name_; }

  private:
    EventQueue &eq_;
    std::string name_;
    Tick freeAt_ = 0;
    Tick busy_ = 0;
};

/** N identical servers behind one FIFO queue. */
class PoolResource
{
  public:
    PoolResource(EventQueue &eq, std::string name, unsigned servers);

    /**
     * Enqueue `service` ticks of work on the earliest-free server.
     * @return the completion tick.
     */
    Tick acquire(Tick service, EventQueue::Callback &&done)
        RECSSD_DEFERS_CALLBACK;

    Tick acquire(Tick service) { return acquire(service, nullptr); }

    unsigned servers() const { return static_cast<unsigned>(freeAt_.size()); }
    Tick busyTime() const { return busy_; }

    const std::string &name() const { return name_; }

  private:
    EventQueue &eq_;
    std::string name_;
    std::vector<Tick> freeAt_;
    Tick busy_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_COMMON_RESOURCE_H
