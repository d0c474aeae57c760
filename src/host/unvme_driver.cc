#include "src/host/unvme_driver.h"

#include <algorithm>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/obs/tracer.h"
#include "src/obs/utilization.h"

namespace recssd
{

namespace
{

void
endSpan(EventQueue &eq, SpanId span)
{
    if (span == invalidSpan)
        return;
    if (Tracer *tracer = tracerOf(eq))
        tracer->end(span);
}

/** The trace name of a command's residence on its queue. */
const char *
spanName(const NvmeCommand &cmd)
{
    switch (cmd.opcode) {
      case NvmeOpcode::Read:
        return cmd.slsFlag ? "sls_result" : "read";
      case NvmeOpcode::Write:
        return cmd.slsFlag ? "sls_config" : "write";
      case NvmeOpcode::Dsm:
        return "trim";
    }
    return "";
}

}  // namespace

UnvmeDriver::UnvmeDriver(EventQueue &eq, HostCpu &cpu, HostController &ctrl,
                         const std::string &track_prefix)
    : eq_(eq), cpu_(cpu), ctrl_(ctrl)
{
    numQueues_ = std::min(cpu.params().ioQueues, ctrl.params().numQueues);
    recssd_assert(numQueues_ > 0, "driver bound zero I/O queues");
    queueBusy_.assign(numQueues_, false);
    occupiedAt_.assign(numQueues_, 0);
    perQueueCommands_.resize(numQueues_);
    for (unsigned q = 0; q < numQueues_; ++q) {
        ioThreads_.push_back(std::make_unique<SerialResource>(
            eq_, track_prefix + "unvme.worker" + std::to_string(q)));
        queuePairs_.push_back(std::make_unique<NvmeQueuePair>(64));
        queueTrackNames_.push_back(track_prefix + "unvme.q" +
                                   std::to_string(q));
    }
}

NvmeCommand
UnvmeDriver::enqueue(unsigned queue, const NvmeCommand &cmd)
{
    NvmeQueuePair &qp = queuePair(queue);
    recssd_assert(qp.canSubmit(), "submission ring full");
    qp.submit(cmd);
    auto fetched = qp.fetch();
    recssd_assert(fetched.has_value(), "ring lost a command");
    return *fetched;
}

void
UnvmeDriver::consumeCompletion(unsigned queue, std::uint16_t cid)
{
    NvmeQueuePair &qp = queuePair(queue);
    qp.complete(cid);
    auto cqe = qp.poll();
    recssd_assert(cqe.has_value() && cqe->cid == cid,
                  "completion did not match the submitted command");
    recssd_assert(cqe->status == 0, "command failed");
}

void
UnvmeDriver::occupy(unsigned queue)
{
    recssd_assert(queue < numQueues_, "I/O queue index out of range");
    recssd_assert(!queueBusy_[queue],
                  "sync API misuse: queue %u already has a command in "
                  "flight", queue);
    queueBusy_[queue] = true;
    occupiedAt_[queue] = eq_.now();
    perQueueCommands_[queue].inc();
}

void
UnvmeDriver::release(unsigned queue)
{
    queueBusy_[queue] = false;
    // Queue-pair occupancy: the command was "in service" on the pair
    // from occupy to release, so the pair's utilization timeline is
    // its submission-to-completion residency.
    if (UtilizationCollector *util = eq_.util())
        util->record(queueTrackNames_[queue], occupiedAt_[queue],
                     occupiedAt_[queue], eq_.now());
}

std::uint64_t
UnvmeDriver::allocRequestId()
{
    std::uint64_t id = nextRequestId_++;
    // Keep ids well below the table alignment so base+id decoding is
    // unambiguous.
    if (nextRequestId_ >= slsTableAlign / 2)
        nextRequestId_ = 1;
    return id;
}

std::uint32_t
UnvmeDriver::open(unsigned queue, NvmeOpcode opcode, std::uint64_t slba,
                  std::uint64_t trace_id)
{
    occupy(queue);
    commands_.inc();
    std::uint32_t op = inflight_.put(Command{});
    Command &c = inflight_[op];
    c.nvme.opcode = opcode;
    c.nvme.slba = slba;
    c.nvme.traceId = trace_id;
    c.queue = queue;
    return op;
}

void
UnvmeDriver::issue(std::uint32_t op, Tick submit_cost)
{
    Command &c = inflight_[op];
    // Observability: the outer span is the command's full residence on
    // this queue (submit CPU -> device -> completion poll); the inner
    // submit/poll spans mark the io-thread occupancy at each end.
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[c.queue]);
        c.devSpan = tracer->begin(track, spanName(c.nvme), Phase::DeviceWait,
                                  c.nvme.traceId);
        c.span = tracer->begin(track, "submit", Phase::DriverSubmit,
                               c.nvme.traceId);
    }
    // Submission burns host CPU, then the device takes over; on
    // completion the polling thread burns CPU again before the
    // caller's continuation runs.
    ioThread(c.queue).acquire(submit_cost, [this, op]() { submit(op); });
}

void
UnvmeDriver::submit(std::uint32_t op)
{
    Command &c = inflight_[op];
    endSpan(eq_, c.span);
    NvmeCommand entry = enqueue(c.queue, c.nvme);
    c.cid = entry.cid;
    auto polled = [this, op]() { poll(op); };
    switch (entry.opcode) {
      case NvmeOpcode::Read:
        if (entry.slsFlag) {
            ctrl_.submitSlsRead(entry, [this, op](DataStore::Page bytes) {
                inflight_[op].nvme.payload = std::move(bytes);
                poll(op);
            });
        } else {
            ctrl_.submitRead(entry, [this, op](const PageView &view) {
                inflight_[op].view = view;
                poll(op);
            });
        }
        break;
      case NvmeOpcode::Write:
        if (entry.slsFlag)
            ctrl_.submitSlsConfig(entry, polled);
        else
            ctrl_.submitWrite(entry, polled);
        break;
      case NvmeOpcode::Dsm:
        ctrl_.submitTrim(entry, polled);
        break;
    }
}

void
UnvmeDriver::poll(std::uint32_t op)
{
    Command &c = inflight_[op];
    c.span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        c.span = tracer->begin(tracer->track(queueTrackNames_[c.queue]),
                               "poll", Phase::DriverSubmit, c.nvme.traceId);
    }
    ioThread(c.queue).acquire(cpu_.params().completionCost,
                              [this, op]() { finish(op); });
}

void
UnvmeDriver::finish(std::uint32_t op)
{
    Command c = inflight_.take(op);
    // A read's view binds a physical page the FTL resolved (and
    // fenced) at service time; log-structured writes allocate fresh
    // ppns, so the bytes under an outstanding view never change across
    // the driver's completion-poll delay.
    RECSSD_DEFERRED_SAFE("view pins an immutable physical page");
    endSpan(eq_, c.span);
    consumeCompletion(c.queue, c.cid);
    release(c.queue);
    endSpan(eq_, c.devSpan);
    if (auto *read = std::get_if<ReadDone>(&c.done))
        (*read)(c.view);
    else if (auto *result = std::get_if<SlsResultDone>(&c.done))
        (*result)(std::move(c.nvme.payload));
    else if (const Done &done = std::get<Done>(c.done))
        done();
}

void
UnvmeDriver::readPage(unsigned queue, Lpn lpn, ReadDone done,
                      std::uint64_t trace_id)
{
    std::uint32_t op = open(queue, NvmeOpcode::Read, lpn, trace_id);
    inflight_[op].done = std::move(done);
    issue(op, cpu_.params().submitCost);
}

void
UnvmeDriver::writePage(unsigned queue, Lpn lpn, DataStore::Page data,
                       Done done, std::uint64_t trace_id)
{
    std::uint32_t op = open(queue, NvmeOpcode::Write, lpn, trace_id);
    inflight_[op].nvme.payload = std::move(data);
    inflight_[op].done = std::move(done);
    issue(op, cpu_.params().submitCost);
}

void
UnvmeDriver::trimPage(unsigned queue, Lpn lpn, Done done,
                      std::uint64_t trace_id)
{
    std::uint32_t op = open(queue, NvmeOpcode::Dsm, lpn, trace_id);
    inflight_[op].done = std::move(done);
    issue(op, cpu_.params().submitCost);
}

void
UnvmeDriver::slsConfigWrite(unsigned queue, Lpn table_base,
                            std::uint64_t request_id,
                            const SlsConfig &config, Done done,
                            std::uint64_t trace_id)
{
    recssd_assert(table_base % slsTableAlign == 0,
                  "embedding table base must be aligned");
    recssd_assert(request_id > 0 && request_id < slsTableAlign,
                  "SLS request id out of range");
    std::uint32_t op =
        open(queue, NvmeOpcode::Write,
             SlsAddress::encode(table_base, request_id), trace_id);
    Command &c = inflight_[op];
    c.nvme.slsFlag = true;
    c.nvme.payload =
        std::make_shared<const std::vector<std::byte>>(config.serialize());
    c.done = std::move(done);
    // Building the pair list costs more than a plain 64B command:
    // charge the submit cost plus a store per pair.
    issue(op, cpu_.params().submitCost +
                  static_cast<Tick>(config.pairs.size()) * 2);
}

void
UnvmeDriver::slsResultRead(unsigned queue, Lpn table_base,
                           std::uint64_t request_id, SlsResultDone done,
                           std::uint64_t trace_id)
{
    std::uint32_t op =
        open(queue, NvmeOpcode::Read,
             SlsAddress::encode(table_base, request_id), trace_id);
    inflight_[op].nvme.slsFlag = true;
    inflight_[op].done = std::move(done);
    issue(op, cpu_.params().submitCost);
}

}  // namespace recssd
