/**
 * @file
 * Userspace NVMe driver model, after Micron's UNVMe library which the
 * paper extends with the two SLS commands (§5 "Micron UNVMe").
 *
 * The driver exposes N independent I/O queues. Like the real sync
 * API, each queue carries one outstanding command: the submitting
 * worker burns CPU to build/submit, the device executes, and the
 * worker burns CPU again polling the completion. The SLS extension
 * adds a config-write and a result-read built on the standard command
 * structures with the spare flag bit set, so all five commands (read,
 * write, trim, SLS config, SLS result) run one chain through one
 * per-command record. They differ only in the span name, the submit
 * cost (an SLS config also pays per pair) and the controller entry
 * point.
 *
 * Each queue is driven by its own SLS worker thread (§4.2 matches
 * workers to queues). The threads are I/O bound — they sleep in the
 * poll loop most of the time — so they are modelled as dedicated
 * serial resources that the OS schedules promptly rather than as
 * contenders for the host core pool; the dense-compute NN workers own
 * the cores.
 */

#ifndef RECSSD_HOST_UNVME_DRIVER_H
#define RECSSD_HOST_UNVME_DRIVER_H

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/stats.h"
#include "src/host/host_cpu.h"
#include "src/ndp/sls_config.h"
#include "src/nvme/host_controller.h"
#include "src/nvme/nvme_command.h"
#include "src/nvme/nvme_queue.h"

namespace recssd
{

class UnvmeDriver
{
  public:
    using ReadDone = InlineFunction<void(const PageView &)>;
    using Done = InlineFunction<void()>;
    using SlsResultDone = HostController::SlsReadDone;

    /** `track_prefix` namespaces the per-queue trace tracks (multi-
     *  SSD systems pass "ssd<d>." so device spans stay separable). */
    UnvmeDriver(EventQueue &eq, HostCpu &cpu, HostController &ctrl,
                const std::string &track_prefix = "");

    /** Usable I/O queues: min(driver binding, controller support). */
    unsigned numQueues() const { return numQueues_; }

    /** Logical block size of the attached namespace. */
    unsigned pageSize() const { return ctrl_.pageSize(); }

    /** The simulation clock this driver schedules on. */
    EventQueue &eventQueue() { return eq_; }

    /** @{ Standard data path (one logical page per command). The
     *  optional trailing trace id tags every span the command produces
     *  down the stack with its owning request. */
    void readPage(unsigned queue, Lpn lpn, ReadDone done,
                  std::uint64_t trace_id = 0);
    /** Write one logical page. `data` becomes the stored flash page
     *  by reference, so the caller must not change it afterwards. */
    void writePage(unsigned queue, Lpn lpn, DataStore::Page data, Done done,
                   std::uint64_t trace_id = 0);

    /** Deallocate one logical page (DSM / trim). */
    void trimPage(unsigned queue, Lpn lpn, Done done,
                  std::uint64_t trace_id = 0);
    /** @} */

    /** @{ RecSSD SLS extension. */

    /**
     * Issue the config-write for an SLS operation.
     * @param table_base First logical page of the target table (must
     *        be slsTableAlign-aligned).
     * @param request_id Caller-chosen id, unique among in-flight
     *        requests to the same table.
     */
    void slsConfigWrite(unsigned queue, Lpn table_base,
                        std::uint64_t request_id, const SlsConfig &config,
                        Done done, std::uint64_t trace_id = 0);

    /** Issue the result-read that completes an SLS operation. */
    void slsResultRead(unsigned queue, Lpn table_base,
                       std::uint64_t request_id, SlsResultDone done,
                       std::uint64_t trace_id = 0);
    /** @} */

    /** Fresh request id for slsConfigWrite. */
    std::uint64_t allocRequestId();

    std::uint64_t commandsIssued() const { return commands_.value(); }

    /** @{ Per-queue accounting and round-robin dispatch. */

    /** Commands ever issued on one queue. */
    std::uint64_t commandsOnQueue(unsigned queue) const
    {
        return perQueueCommands_.at(queue).value();
    }

    /** Ring occupancy of one queue pair right now. */
    std::uint16_t queueDepth(unsigned queue) const
    {
        return queuePairs_.at(queue)->outstanding();
    }

    /** True while the sync API has a command in flight on the queue. */
    bool queueBusy(unsigned queue) const { return queueBusy_.at(queue); }

    /**
     * Next queue in round-robin order, preferring idle queues: scans
     * from the rotor for a free queue and falls back to the plain
     * rotor position when every queue is busy (the caller must then
     * wait, e.g. through the QueueAllocator, before submitting).
     */
    unsigned pickQueue();
    /** @} */

    /** The I/O worker thread bound to a queue (for extract work). */
    SerialResource &ioThread(unsigned queue)
    {
        return *ioThreads_.at(queue);
    }

    /** The NVMe ring pair backing a queue. */
    NvmeQueuePair &queuePair(unsigned queue)
    {
        return *queuePairs_.at(queue);
    }

  private:
    /** One completion shape per command family: a page read hands
     *  back a view, an SLS result read its packed bytes, the rest
     *  nothing. */
    using Completion = std::variant<ReadDone, Done, SlsResultDone>;

    /**
     * In-flight state of one command, whatever its kind. The chain's
     * continuations capture only `this` and the record index, so they
     * fit inline, and the caller's `done` is moved once in and once
     * out.
     */
    struct Command
    {
        /** The command as built; its payload is the command's one byte
         *  buffer (write data or SLS config in, SLS result out). */
        NvmeCommand nvme;
        unsigned queue = 0;
        /** Ring-assigned command id, once submitted. */
        std::uint16_t cid = 0;
        /** Open submit span, then the open poll span. */
        SpanId span = invalidSpan;
        /** The command's whole residence on the queue. */
        SpanId devSpan = invalidSpan;
        /** The page a read's completion hands back. */
        PageView view;
        Completion done;
    };

    /** @{ The one chain every command runs. `open` occupies the queue
     *  and stores the command; the entry point fills in the rest of the
     *  record, and `issue` opens the spans and burns the submit CPU
     *  cost. `submit` hands the command to the controller, `poll` burns
     *  the completion cost, and `finish` runs `done`. */
    std::uint32_t open(unsigned queue, NvmeOpcode opcode, std::uint64_t slba,
                       std::uint64_t trace_id);
    void issue(std::uint32_t op, Tick submit_cost);
    void submit(std::uint32_t op);
    void poll(std::uint32_t op);
    void finish(std::uint32_t op);
    /** @} */

    /** Mark the queue busy; panics on concurrent use (sync API). */
    void occupy(unsigned queue);
    void release(unsigned queue);

    /**
     * Move a command through the queue pair: submit + controller
     * fetch. @return the ring-assigned command with its CID.
     */
    NvmeCommand enqueue(unsigned queue, const NvmeCommand &cmd);

    /** Consume the completion for `cid` from the queue's CQ ring. */
    void consumeCompletion(unsigned queue, std::uint16_t cid);

    EventQueue &eq_;
    HostCpu &cpu_;
    HostController &ctrl_;
    unsigned numQueues_;
    std::vector<bool> queueBusy_;
    /** Tick each queue's in-flight command occupied it (utilization
     *  timelines report occupancy as one op per command). */
    std::vector<Tick> occupiedAt_;
    /** Pre-built trace track names, one per I/O queue. */
    std::vector<std::string> queueTrackNames_;
    std::vector<std::unique_ptr<SerialResource>> ioThreads_;
    std::vector<std::unique_ptr<NvmeQueuePair>> queuePairs_;
    RecordPool<Command> inflight_;
    std::uint64_t nextRequestId_ = 1;
    unsigned rrNext_ = 0;  ///< round-robin rotor for pickQueue()

    Counter commands_;
    std::vector<Counter> perQueueCommands_;
};

}  // namespace recssd

#endif  // RECSSD_HOST_UNVME_DRIVER_H
