/**
 * @file
 * The SSD-side NVMe host controller.
 *
 * Fetches commands over PCIe, runs them through a small controller
 * resource (the second A9 core plus the NVMe DMA engine), dispatches
 * to the FTL — or, for commands carrying the SLS flag, to a registered
 * `SlsHandler` (the RecSSD engine) — and posts completions back across
 * the link. Every command kind runs one chain through one per-command
 * record (fetch, its own execute step, completion post, `complete`);
 * only the execute step differs.
 */

#ifndef RECSSD_NVME_HOST_CONTROLLER_H
#define RECSSD_NVME_HOST_CONTROLLER_H

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"
#include "src/common/resource.h"
#include "src/common/stats.h"
#include "src/ftl/ftl.h"
#include "src/nvme/nvme_command.h"
#include "src/nvme/pcie_link.h"

namespace recssd
{

struct NvmeParams
{
    /** Controller occupancy to fetch + parse one command. */
    Tick cmdProcessCost = 1 * usec;
    /** Controller occupancy to post one completion. */
    Tick completionPostCost = 500 * nsec;
    /** Submission/completion queue pairs exposed to the host. */
    unsigned numQueues = 8;
    /** Submission queue entry / completion entry sizes (bytes). */
    unsigned sqeBytes = 64;
    unsigned cqeBytes = 16;
};

/**
 * Device-side hooks for SLS commands. Implemented by the RecSSD
 * engine in `src/ndp`; declared here so the NVMe layer needs no
 * dependency on it.
 */
class SlsHandler
{
  public:
    using ConfigDone = EventQueue::Callback;
    /** Receives the packed result bytes and the length the result DMA
     *  moves (the bytes padded to whole logical blocks). */
    using ResultDone =
        InlineFunction<void(DataStore::Page, std::uint64_t dma_bytes)>;

    virtual ~SlsHandler() = default;

    /**
     * A config (write-like) SLS command arrived; its payload has been
     * DMAed into controller DRAM. Call `done` when the device has
     * accepted the configuration (completes the NVMe write).
     */
    virtual void configWrite(const NvmeCommand &cmd, ConfigDone done) = 0;

    /**
     * A result (read-like) SLS command arrived. Call `done` with the
     * packed result bytes and their DMA length once they are ready.
     */
    virtual void resultRead(const NvmeCommand &cmd, ResultDone done) = 0;
};

class HostController
{
  public:
    /** Completion of a data-read command (lazy page view). */
    using ReadDone = FlashArray::ReadCallback;
    using WriteDone = EventQueue::Callback;
    using SlsReadDone = InlineFunction<void(DataStore::Page)>;

    /** `track_prefix` namespaces the controller's trace track (multi-
     *  SSD systems pass "ssd<d>." so device spans stay separable). */
    HostController(EventQueue &eq, const NvmeParams &params, PcieLink &pcie,
                   Ftl &ftl, const std::string &track_prefix = "");

    void setSlsHandler(SlsHandler *handler) { sls_ = handler; }

    /** @{ Host driver entry points (one call = one NVMe command). */

    /** Single-page data read. */
    void submitRead(const NvmeCommand &cmd, ReadDone done);

    /** Single-page data write. */
    void submitWrite(const NvmeCommand &cmd, WriteDone done);

    /** Deallocate (trim) a single logical page. */
    void submitTrim(const NvmeCommand &cmd, WriteDone done);

    /** SLS config write (slsFlag set, write-like). */
    void submitSlsConfig(const NvmeCommand &cmd, WriteDone done);

    /** SLS result read (slsFlag set, read-like). */
    void submitSlsRead(const NvmeCommand &cmd, SlsReadDone done);
    /** @} */

    PcieLink &pcie() { return pcie_; }
    const NvmeParams &params() const { return params_; }

    /** Logical block (= flash page) size the namespace exposes. */
    unsigned pageSize() const { return ftl_.flash().params().pageSize; }

    /** @{ Fault hook (`src/fault`): full device dropout.
     *
     * After `killNow()` the controller neither fetches new commands
     * nor posts completions: submissions and in-flight command chains
     * are silently swallowed (counted in `droppedCommands`), exactly
     * what the host observes when a drive falls off the bus. The
     * death hooks then run, in registration order, so the host can
     * resolve the commands it will never see complete. */
    void killNow();
    bool dead() const { return dead_; }
    /** Register a death hook; @return its handle. */
    std::size_t addDeathHook(EventQueue::Callback hook);
    /** Unregister a hook (its owner is going away). */
    void removeDeathHook(std::size_t handle) { deathHooks_.at(handle) = {}; }
    std::uint64_t droppedCommands() const { return dropped_.value(); }
    /** @} */

    std::uint64_t commandsProcessed() const { return commands_.value(); }

  private:
    /** A phase of a command chain, run with the command's index. */
    using Step = void (HostController::*)(std::uint32_t op);

    /** One completion shape per command family: a data read hands
     *  back a page view, an SLS result read its packed bytes, the
     *  rest nothing. */
    using Completion = std::variant<ReadDone, WriteDone, SlsReadDone>;

    /**
     * In-flight state of one command, whatever its kind. Every phase
     * continuation captures only `this` and the record index, so each
     * fits an EventQueue::Callback's inline buffer.
     */
    struct Command
    {
        /** The command as fetched. Its payload is the command's one
         *  byte buffer: the write data or SLS config on the way in
         *  (a data write's is stored by reference as the flash page),
         *  the packed SLS result on the way out. */
        NvmeCommand cmd;
        /** The command-specific phase that runs after the fetch. */
        Step execute = nullptr;
        /** Open controller span (cmd_process / cqe_post). */
        SpanId span = invalidSpan;
        /** The page a data read's completion hands back. */
        PageView view;
        Completion done;
    };

    /** Store the command, then fetch it and run `execute`. */
    void submit(const NvmeCommand &cmd, Completion done, Step execute);

    /** Command fetch: SQE DMA + controller parse cost, then the
     *  command's execute step. */
    void fetchCommand(std::uint32_t op);

    /** Completion: controller post cost + CQE DMA, then `complete`. */
    void postCompletion(std::uint32_t op);

    /** Hand the completion to the host. */
    void complete(std::uint32_t op);

    /** @{ Command-specific phases, run after the fetch. */
    void readExecute(std::uint32_t op);
    void writeExecute(std::uint32_t op);
    void trimExecute(std::uint32_t op);
    void slsConfigExecute(std::uint32_t op);
    void slsReadExecute(std::uint32_t op);
    /** @} */

    EventQueue &eq_;
    NvmeParams params_;
    PcieLink &pcie_;
    Ftl &ftl_;
    SlsHandler *sls_ = nullptr;
    std::string trackName_;
    SerialResource ctrl_;
    bool dead_ = false;
    std::vector<EventQueue::Callback> deathHooks_;
    RecordPool<Command> inflight_;

    Counter commands_;
    Counter dropped_;
};

}  // namespace recssd

#endif  // RECSSD_NVME_HOST_CONTROLLER_H
