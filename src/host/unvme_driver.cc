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

unsigned
UnvmeDriver::pickQueue()
{
    for (unsigned i = 0; i < numQueues_; ++i) {
        unsigned q = (rrNext_ + i) % numQueues_;
        if (!queueBusy_[q]) {
            rrNext_ = (q + 1) % numQueues_;
            return q;
        }
    }
    unsigned q = rrNext_;
    rrNext_ = (rrNext_ + 1) % numQueues_;
    return q;
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

void
UnvmeDriver::readPage(unsigned queue, Lpn lpn, ReadDone done,
                      std::uint64_t trace_id)
{
    occupy(queue);
    commands_.inc();
    ReadCmd read;
    read.cmd.opcode = NvmeOpcode::Read;
    read.cmd.slba = lpn;
    read.cmd.traceId = trace_id;
    read.queue = queue;
    read.done = std::move(done);
    // Observability: the outer span is the command's full residence on
    // this queue (submit CPU -> device -> completion poll); the inner
    // submit/poll spans mark the io-thread occupancy at each end.
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        read.devSpan =
            tracer->begin(track, "read", Phase::DeviceWait, trace_id);
        read.span =
            tracer->begin(track, "submit", Phase::DriverSubmit, trace_id);
    }
    // Submission burns host CPU, then the device takes over; on
    // completion the polling thread burns CPU again before the
    // caller's continuation runs.
    std::uint32_t op = reads_.put(std::move(read));
    ioThread(queue).acquire(cpu_.params().submitCost,
                            [this, op]() { submitRead(op); });
}

void
UnvmeDriver::submitRead(std::uint32_t op)
{
    ReadCmd &read = reads_[op];
    endSpan(eq_, read.span);
    NvmeCommand entry = enqueue(read.queue, read.cmd);
    read.cid = entry.cid;
    ctrl_.submitRead(entry, [this, op](const PageView &view) {
        ReadCmd &read = reads_[op];
        read.view = view;
        read.span = invalidSpan;
        if (Tracer *tracer = tracerOf(eq_)) {
            read.span =
                tracer->begin(tracer->track(queueTrackNames_[read.queue]),
                              "poll", Phase::DriverSubmit, read.cmd.traceId);
        }
        ioThread(read.queue).acquire(cpu_.params().completionCost,
                                     [this, op]() { finishRead(op); });
    });
}

void
UnvmeDriver::finishRead(std::uint32_t op)
{
    ReadCmd read = reads_.take(op);
    // The view binds a physical page the FTL resolved (and fenced) at
    // service time; log-structured writes allocate fresh ppns, so the
    // bytes under an outstanding view never change across the driver's
    // completion-poll delay.
    RECSSD_DEFERRED_SAFE("view pins an immutable physical page");
    endSpan(eq_, read.span);
    consumeCompletion(read.queue, read.cid);
    release(read.queue);
    endSpan(eq_, read.devSpan);
    read.done(read.view);
}

void
UnvmeDriver::writePage(unsigned queue, Lpn lpn,
                       std::shared_ptr<const std::vector<std::byte>> data,
                       Done done, std::uint64_t trace_id)
{
    occupy(queue);
    commands_.inc();
    NvmeCommand cmd;
    cmd.opcode = NvmeOpcode::Write;
    cmd.slba = lpn;
    cmd.payload = std::move(data);
    cmd.traceId = trace_id;
    SpanId dev_span = invalidSpan;
    SpanId submit_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        dev_span = tracer->begin(track, "write", Phase::DeviceWait, trace_id);
        submit_span =
            tracer->begin(track, "submit", Phase::DriverSubmit, trace_id);
    }
    ioThread(queue).acquire(
        cpu_.params().submitCost, [this, cmd, queue, dev_span, submit_span,
                                   trace_id, done = std::move(done)]() {
            endSpan(eq_, submit_span);
            NvmeCommand entry = enqueue(queue, cmd);
            ctrl_.submitWrite(entry, [this, queue, cid = entry.cid, dev_span,
                                      trace_id, done = std::move(done)]() {
                SpanId poll_span = invalidSpan;
                if (Tracer *tracer = tracerOf(eq_)) {
                    poll_span =
                        tracer->begin(tracer->track(queueTrackNames_[queue]),
                                      "poll", Phase::DriverSubmit, trace_id);
                }
                ioThread(queue).acquire(
                    cpu_.params().completionCost,
                    [this, queue, cid, dev_span, poll_span,
                     done = std::move(done)]() {
                        endSpan(eq_, poll_span);
                        consumeCompletion(queue, cid);
                        release(queue);
                        endSpan(eq_, dev_span);
                        done();
                    });
            });
        });
}

void
UnvmeDriver::trimPage(unsigned queue, Lpn lpn, Done done,
                      std::uint64_t trace_id)
{
    occupy(queue);
    commands_.inc();
    NvmeCommand cmd;
    cmd.opcode = NvmeOpcode::Dsm;
    cmd.slba = lpn;
    cmd.traceId = trace_id;
    SpanId dev_span = invalidSpan;
    SpanId submit_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        dev_span = tracer->begin(track, "trim", Phase::DeviceWait, trace_id);
        submit_span =
            tracer->begin(track, "submit", Phase::DriverSubmit, trace_id);
    }
    ioThread(queue).acquire(
        cpu_.params().submitCost, [this, cmd, queue, dev_span, submit_span,
                                   trace_id, done = std::move(done)]() {
            endSpan(eq_, submit_span);
            NvmeCommand entry = enqueue(queue, cmd);
            ctrl_.submitTrim(entry, [this, queue, cid = entry.cid, dev_span,
                                     trace_id, done = std::move(done)]() {
                SpanId poll_span = invalidSpan;
                if (Tracer *tracer = tracerOf(eq_)) {
                    poll_span =
                        tracer->begin(tracer->track(queueTrackNames_[queue]),
                                      "poll", Phase::DriverSubmit, trace_id);
                }
                ioThread(queue).acquire(
                    cpu_.params().completionCost,
                    [this, queue, cid, dev_span, poll_span,
                     done = std::move(done)]() {
                        endSpan(eq_, poll_span);
                        consumeCompletion(queue, cid);
                        release(queue);
                        endSpan(eq_, dev_span);
                        done();
                    });
            });
        });
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
    occupy(queue);
    commands_.inc();
    NvmeCommand cmd;
    cmd.opcode = NvmeOpcode::Write;
    cmd.slsFlag = true;
    cmd.slba = SlsAddress::encode(table_base, request_id);
    cmd.payload = std::make_shared<std::vector<std::byte>>(
        config.serialize());
    cmd.traceId = trace_id;
    SpanId dev_span = invalidSpan;
    SpanId submit_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        dev_span =
            tracer->begin(track, "sls_config", Phase::DeviceWait, trace_id);
        submit_span =
            tracer->begin(track, "submit", Phase::DriverSubmit, trace_id);
    }
    // Building the pair list costs more than a plain 64B command:
    // charge the submit cost plus a store per pair.
    Tick build = cpu_.params().submitCost +
                 static_cast<Tick>(config.pairs.size()) * 2;
    ioThread(queue).acquire(build, [this, cmd, queue, dev_span, submit_span,
                                    trace_id, done = std::move(done)]() {
        endSpan(eq_, submit_span);
        NvmeCommand entry = enqueue(queue, cmd);
        ctrl_.submitSlsConfig(entry, [this, queue, cid = entry.cid, dev_span,
                                      trace_id, done = std::move(done)]() {
            SpanId poll_span = invalidSpan;
            if (Tracer *tracer = tracerOf(eq_)) {
                poll_span =
                    tracer->begin(tracer->track(queueTrackNames_[queue]),
                                  "poll", Phase::DriverSubmit, trace_id);
            }
            ioThread(queue).acquire(
                cpu_.params().completionCost,
                [this, queue, cid, dev_span, poll_span,
                 done = std::move(done)]() {
                    endSpan(eq_, poll_span);
                    consumeCompletion(queue, cid);
                    release(queue);
                    endSpan(eq_, dev_span);
                    done();
                });
        });
    });
}

void
UnvmeDriver::slsResultRead(unsigned queue, Lpn table_base,
                           std::uint64_t request_id, SlsResultDone done,
                           std::uint64_t trace_id)
{
    occupy(queue);
    commands_.inc();
    NvmeCommand cmd;
    cmd.opcode = NvmeOpcode::Read;
    cmd.slsFlag = true;
    cmd.slba = SlsAddress::encode(table_base, request_id);
    cmd.traceId = trace_id;
    SpanId dev_span = invalidSpan;
    SpanId submit_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        dev_span =
            tracer->begin(track, "sls_result", Phase::DeviceWait, trace_id);
        submit_span =
            tracer->begin(track, "submit", Phase::DriverSubmit, trace_id);
    }
    ioThread(queue).acquire(
        cpu_.params().submitCost, [this, cmd, queue, dev_span, submit_span,
                                   trace_id, done = std::move(done)]() {
            endSpan(eq_, submit_span);
            NvmeCommand entry = enqueue(queue, cmd);
            ctrl_.submitSlsRead(
                entry, [this, queue, cid = entry.cid, dev_span, trace_id,
                        done = std::move(done)](
                           std::shared_ptr<std::vector<std::byte>> data) {
                    SpanId poll_span = invalidSpan;
                    if (Tracer *tracer = tracerOf(eq_)) {
                        poll_span = tracer->begin(
                            tracer->track(queueTrackNames_[queue]), "poll",
                            Phase::DriverSubmit, trace_id);
                    }
                    ioThread(queue).acquire(
                        cpu_.params().completionCost,
                        [this, queue, cid, data, dev_span, poll_span,
                         done = std::move(done)]() {
                            endSpan(eq_, poll_span);
                            consumeCompletion(queue, cid);
                            release(queue);
                            endSpan(eq_, dev_span);
                            done(data);
                        });
                });
        });
}

}  // namespace recssd
