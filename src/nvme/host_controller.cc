#include "src/nvme/host_controller.h"

#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace recssd
{

HostController::HostController(EventQueue &eq, const NvmeParams &params,
                               PcieLink &pcie, Ftl &ftl,
                               const std::string &track_prefix)
    : eq_(eq), params_(params), pcie_(pcie), ftl_(ftl),
      trackName_(track_prefix + "nvme.ctrl"), ctrl_(eq, trackName_)
{
}

void
HostController::killNow()
{
    dead_ = true;
    for (const auto &hook : deathHooks_)
        if (hook)
            hook();
}

std::size_t
HostController::addDeathHook(EventQueue::Callback hook)
{
    deathHooks_.push_back(std::move(hook));
    return deathHooks_.size() - 1;
}

void
HostController::submit(const NvmeCommand &cmd, Completion done, Step execute)
{
    std::uint32_t op = inflight_.put(Command{});
    Command &rec = inflight_[op];
    rec.cmd = cmd;
    rec.cmd.submitTick = eq_.now();
    rec.execute = execute;
    rec.done = std::move(done);
    fetchCommand(op);
}

void
HostController::fetchCommand(std::uint32_t op)
{
    if (dead_) {
        // The drive fell off the bus: the SQ doorbell rings into the
        // void and the command chain is dropped on the floor.
        dropped_.inc();
        inflight_.release(op);
        return;
    }
    commands_.inc();
    pcie_.transfer(
        params_.sqeBytes,
        [this, op]() {
            Command &rec = inflight_[op];
            if (Tracer *tracer = tracerOf(eq_)) {
                rec.span = tracer->begin(tracer->track(trackName_),
                                         "cmd_process", Phase::NvmeXfer,
                                         rec.cmd.traceId);
            }
            ctrl_.acquire(params_.cmdProcessCost, [this, op]() {
                Command &rec = inflight_[op];
                if (rec.span != invalidSpan) {
                    if (Tracer *tracer = tracerOf(eq_))
                        tracer->end(rec.span);
                    rec.span = invalidSpan;
                }
                (this->*rec.execute)(op);
            });
        },
        inflight_[op].cmd.traceId);
}

void
HostController::postCompletion(std::uint32_t op)
{
    if (dead_) {
        // In-flight command whose device died mid-chain: the host
        // never sees a CQE.
        dropped_.inc();
        inflight_.release(op);
        return;
    }
    Command &rec = inflight_[op];
    if (Tracer *tracer = tracerOf(eq_)) {
        rec.span = tracer->begin(tracer->track(trackName_), "cqe_post",
                                 Phase::NvmeXfer, rec.cmd.traceId);
    }
    ctrl_.acquire(params_.completionPostCost, [this, op]() {
        Command &rec = inflight_[op];
        if (rec.span != invalidSpan) {
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(rec.span);
            rec.span = invalidSpan;
        }
        pcie_.transfer(
            params_.cqeBytes, [this, op]() { complete(op); },
            rec.cmd.traceId);
    });
}

void
HostController::complete(std::uint32_t op)
{
    Command rec = inflight_.take(op);
    if (auto *read = std::get_if<ReadDone>(&rec.done))
        (*read)(rec.view);
    else if (auto *result = std::get_if<SlsReadDone>(&rec.done))
        (*result)(std::move(rec.cmd.payload));
    else if (const WriteDone &done = std::get<WriteDone>(rec.done))
        done();
}

void
HostController::submitRead(const NvmeCommand &cmd, ReadDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsRead for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path reads one page per command");
    submit(cmd, std::move(done), &HostController::readExecute);
}

void
HostController::readExecute(std::uint32_t op)
{
    const Command &rec = inflight_[op];
    ftl_.hostRead(
        rec.cmd.slba,
        [this, op](const PageView &view) {
            // Page data DMA to host, then the completion entry.
            Command &rec = inflight_[op];
            rec.view = view;
            pcie_.transfer(
                ftl_.flash().params().pageSize,
                [this, op]() { postCompletion(op); }, rec.cmd.traceId);
        },
        rec.cmd.traceId);
}

void
HostController::submitWrite(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsConfig for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path writes one page per command");
    recssd_assert(cmd.payload != nullptr, "write without payload");
    submit(cmd, std::move(done), &HostController::writeExecute);
}

void
HostController::writeExecute(std::uint32_t op)
{
    // Pull the data from host memory before programming.
    pcie_.transfer(
        ftl_.flash().params().pageSize,
        [this, op]() {
            Command &rec = inflight_[op];
            ftl_.hostWrite(
                rec.cmd.slba, std::move(rec.cmd.payload),
                [this, op]() { postCompletion(op); }, rec.cmd.traceId);
        },
        inflight_[op].cmd.traceId);
}

void
HostController::submitTrim(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.opcode == NvmeOpcode::Dsm, "submitTrim needs DSM");
    submit(cmd, std::move(done), &HostController::trimExecute);
}

void
HostController::trimExecute(std::uint32_t op)
{
    const Command &rec = inflight_[op];
    ftl_.hostTrim(
        rec.cmd.slba, [this, op]() { postCompletion(op); },
        rec.cmd.traceId);
}

void
HostController::submitSlsConfig(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsConfig requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    recssd_assert(cmd.payload != nullptr, "SLS config without payload");
    submit(cmd, std::move(done), &HostController::slsConfigExecute);
}

void
HostController::slsConfigExecute(std::uint32_t op)
{
    // Step 1a (Fig 7): DMA the configuration data from the host.
    const Command &rec = inflight_[op];
    pcie_.transfer(
        rec.cmd.payload->size(),
        [this, op]() {
            sls_->configWrite(inflight_[op].cmd,
                              [this, op]() { postCompletion(op); });
        },
        rec.cmd.traceId);
}

void
HostController::submitSlsRead(const NvmeCommand &cmd, SlsReadDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsRead requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    submit(cmd, std::move(done), &HostController::slsReadExecute);
}

void
HostController::slsReadExecute(std::uint32_t op)
{
    // Step 1b (Fig 7): register the host page request; the engine
    // calls back with packed result bytes when ready, which we then
    // DMA to the host.
    sls_->resultRead(inflight_[op].cmd, [this, op](DataStore::Page bytes) {
        Command &rec = inflight_[op];
        std::uint64_t size = bytes->size();
        rec.cmd.payload = std::move(bytes);
        pcie_.transfer(
            size, [this, op]() { postCompletion(op); }, rec.cmd.traceId,
            Phase::ResultDma);
    });
}

void
HostController::dmaToHost(std::uint64_t bytes, EventQueue::Callback done,
                          std::uint64_t trace_id)
{
    pcie_.transfer(bytes, std::move(done), trace_id, Phase::ResultDma);
}

void
HostController::dmaFromHost(std::uint64_t bytes, EventQueue::Callback done,
                            std::uint64_t trace_id)
{
    pcie_.transfer(bytes, std::move(done), trace_id);
}

}  // namespace recssd
