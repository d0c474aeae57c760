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
HostController::addDeathHook(std::function<void()> hook)
{
    deathHooks_.push_back(std::move(hook));
    return deathHooks_.size() - 1;
}

void
HostController::fetchCommand(std::uint32_t op, Step next)
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
        [this, op, next]() {
            Command &cmd = inflight_[op];
            if (Tracer *tracer = tracerOf(eq_)) {
                cmd.span = tracer->begin(tracer->track(trackName_),
                                         "cmd_process", Phase::NvmeXfer,
                                         cmd.traceId);
            }
            ctrl_.acquire(params_.cmdProcessCost, [this, op, next]() {
                Command &cmd = inflight_[op];
                if (cmd.span != invalidSpan) {
                    if (Tracer *tracer = tracerOf(eq_))
                        tracer->end(cmd.span);
                    cmd.span = invalidSpan;
                }
                (this->*next)(op);
            });
        },
        inflight_[op].traceId);
}

void
HostController::postCompletion(std::uint32_t op, Step next)
{
    if (dead_) {
        // In-flight command whose device died mid-chain: the host
        // never sees a CQE.
        dropped_.inc();
        inflight_.release(op);
        return;
    }
    Command &cmd = inflight_[op];
    if (Tracer *tracer = tracerOf(eq_)) {
        cmd.span = tracer->begin(tracer->track(trackName_), "cqe_post",
                                 Phase::NvmeXfer, cmd.traceId);
    }
    ctrl_.acquire(params_.completionPostCost, [this, op, next]() {
        Command &cmd = inflight_[op];
        if (cmd.span != invalidSpan) {
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(cmd.span);
            cmd.span = invalidSpan;
        }
        pcie_.transfer(
            params_.cqeBytes, [this, op, next]() { (this->*next)(op); },
            cmd.traceId);
    });
}

void
HostController::submitRead(const NvmeCommand &cmd, ReadDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsRead for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path reads one page per command");
    Command rec;
    rec.traceId = cmd.traceId;
    rec.lpn = cmd.slba;
    rec.readDone = std::move(done);
    fetchCommand(inflight_.put(std::move(rec)),
                 &HostController::readExecute);
}

void
HostController::readExecute(std::uint32_t op)
{
    const Command &cmd = inflight_[op];
    ftl_.hostRead(
        cmd.lpn,
        [this, op](const PageView &view) {
            // Page data DMA to host, then the completion entry.
            Command &cmd = inflight_[op];
            cmd.view = view;
            pcie_.transfer(
                ftl_.flash().params().pageSize,
                [this, op]() {
                    postCompletion(op, &HostController::readComplete);
                },
                cmd.traceId);
        },
        cmd.traceId);
}

void
HostController::readComplete(std::uint32_t op)
{
    Command cmd = inflight_.take(op);
    cmd.readDone(cmd.view);
}

void
HostController::submitWrite(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsConfig for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path writes one page per command");
    recssd_assert(cmd.payload != nullptr, "write without payload");
    Command rec;
    rec.traceId = cmd.traceId;
    rec.lpn = cmd.slba;
    rec.payload = cmd.payload;
    rec.writeDone = std::move(done);
    fetchCommand(inflight_.put(std::move(rec)),
                 &HostController::writeExecute);
}

void
HostController::writeExecute(std::uint32_t op)
{
    // Pull the data from host memory before programming.
    pcie_.transfer(
        ftl_.flash().params().pageSize,
        [this, op]() {
            Command &cmd = inflight_[op];
            ftl_.hostWrite(
                cmd.lpn, std::move(cmd.payload),
                [this, op]() {
                    postCompletion(op, &HostController::writeComplete);
                },
                cmd.traceId);
        },
        inflight_[op].traceId);
}

void
HostController::writeComplete(std::uint32_t op)
{
    Command cmd = inflight_.take(op);
    if (cmd.writeDone)
        cmd.writeDone();
}

void
HostController::submitTrim(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.opcode == NvmeOpcode::Dsm, "submitTrim needs DSM");
    Command rec;
    rec.traceId = cmd.traceId;
    rec.lpn = cmd.slba;
    rec.writeDone = std::move(done);
    fetchCommand(inflight_.put(std::move(rec)),
                 &HostController::trimExecute);
}

void
HostController::trimExecute(std::uint32_t op)
{
    const Command &cmd = inflight_[op];
    ftl_.hostTrim(
        cmd.lpn,
        [this, op]() { postCompletion(op, &HostController::writeComplete); },
        cmd.traceId);
}

void
HostController::submitSlsConfig(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsConfig requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    recssd_assert(cmd.payload != nullptr, "SLS config without payload");
    Command rec;
    rec.traceId = cmd.traceId;
    rec.sls = cmd;
    rec.sls.submitTick = eq_.now();
    rec.writeDone = std::move(done);
    fetchCommand(inflight_.put(std::move(rec)),
                 &HostController::slsConfigExecute);
}

void
HostController::slsConfigExecute(std::uint32_t op)
{
    // Step 1a (Fig 7): DMA the configuration data from the host.
    const Command &cmd = inflight_[op];
    pcie_.transfer(
        cmd.sls.payload->size(),
        [this, op]() {
            sls_->configWrite(inflight_[op].sls, [this, op]() {
                postCompletion(op, &HostController::writeComplete);
            });
        },
        cmd.traceId);
}

void
HostController::submitSlsRead(const NvmeCommand &cmd, SlsReadDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsRead requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    Command rec;
    rec.traceId = cmd.traceId;
    rec.sls = cmd;
    rec.slsDone = std::move(done);
    fetchCommand(inflight_.put(std::move(rec)),
                 &HostController::slsReadExecute);
}

void
HostController::slsReadExecute(std::uint32_t op)
{
    // Step 1b (Fig 7): register the host page request; the engine
    // calls back with packed result bytes when ready, which we then
    // DMA to the host.
    sls_->resultRead(
        inflight_[op].sls,
        [this, op](std::shared_ptr<std::vector<std::byte>> data) {
            Command &cmd = inflight_[op];
            std::uint64_t bytes = data->size();
            cmd.data = std::move(data);
            pcie_.transfer(
                bytes,
                [this, op]() {
                    postCompletion(op, &HostController::slsReadComplete);
                },
                cmd.traceId, Phase::ResultDma);
        });
}

void
HostController::slsReadComplete(std::uint32_t op)
{
    Command cmd = inflight_.take(op);
    cmd.slsDone(std::move(cmd.data));
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
