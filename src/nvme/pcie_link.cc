#include "src/nvme/pcie_link.h"

#include "src/obs/tracer.h"

namespace recssd
{

PcieLink::PcieLink(EventQueue &eq, const PcieParams &params,
                   const std::string &track_prefix)
    : eq_(eq), params_(params), trackName_(track_prefix + "pcie"),
      link_(eq, trackName_)
{
}

Tick
PcieLink::occupancy(std::uint64_t bytes) const
{
    return static_cast<Tick>(static_cast<double>(bytes) /
                             static_cast<double>(params_.bytesPerSec) *
                             static_cast<double>(sec));
}

void
PcieLink::transfer(std::uint64_t bytes, EventQueue::Callback done,
                   std::uint64_t trace_id, Phase phase)
{
    bytesMoved_ += bytes;
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_))
        span = tracer->begin(tracer->track(trackName_), "xfer", phase,
                             trace_id);
    std::uint32_t op = transfers_.put(Transfer{std::move(done), span});
    link_.acquire(occupancy(bytes), [this, op]() { propagate(op); });
}

void
PcieLink::propagate(std::uint32_t op)
{
    // The span covers queueing + occupancy + propagation: the bytes'
    // full time on the wire from the request's viewpoint.
    if (transfers_[op].done || tracerOf(eq_) != nullptr) {
        eq_.scheduleAfter(params_.latency, [this, op]() {
            Transfer xfer = transfers_.take(op);
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(xfer.span);
            if (xfer.done)
                xfer.done();
        });
    } else {
        transfers_.release(op);
    }
}

}  // namespace recssd
