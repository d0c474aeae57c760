#include "src/flash/flash_array.h"

#include <algorithm>

#include "src/common/logging.h"

namespace recssd
{

FlashArray::FlashArray(EventQueue &eq, const FlashParams &params,
                       DataStore &store, const std::string &track_prefix)
    : eq_(eq), params_(params), store_(store), retryRng_(0x5EED)
{
    recssd_assert(params_.pageSize == store_.pageSize(),
                  "flash/page store size mismatch");
    for (unsigned c = 0; c < params_.numChannels; ++c) {
        std::string ch = track_prefix + "flash.ch" + std::to_string(c);
        channels_.push_back(std::make_unique<SerialResource>(eq_, ch));
        channelTrackNames_.push_back(ch);
        for (unsigned d = 0; d < params_.diesPerChannel; ++d) {
            std::string die_name = ch + ".die" + std::to_string(d);
            dies_.push_back(
                std::make_unique<SerialResource>(eq_, die_name));
            dieTrackNames_.push_back(std::move(die_name));
        }
    }
}

Tick
FlashArray::channelBusyTime(unsigned ch) const
{
    return channels_.at(ch)->busyTime();
}

Tick
FlashArray::arrayReadTime()
{
    // Injected latency inflation scales the nominal tR for reads that
    // start inside a window. The empty-vector fast path keeps healthy
    // devices byte-identical to a build without fault support.
    Tick base = params_.readLatency;
    if (!inflations_.empty()) {
        Tick now = eq_.now();
        std::erase_if(inflations_, [now](const InflationWindow &w) {
            return w.until <= now;
        });
        double factor = 1.0;
        for (const auto &w : inflations_)
            factor = std::max(factor, w.factor);
        if (factor > 1.0) {
            base = static_cast<Tick>(static_cast<double>(base) * factor);
            inflatedReads_.inc();
        }
    }
    Tick t = base;
    if (params_.readRetryRate > 0.0) {
        for (unsigned r = 0; r < params_.maxReadRetries; ++r) {
            if (!retryRng_.bernoulli(params_.readRetryRate))
                break;
            readRetries_.inc();
            t += base;
        }
    }
    return t;
}

void
FlashArray::emitDieSpans(unsigned ch, unsigned d, Phase phase,
                         Tick service, std::uint64_t trace_id)
{
    Tracer *tracer = tracerOf(eq_);
    if (!tracer)
        return;
    // Die-level wait/busy spans, recorded just before the die is
    // acquired. They carry the same phase as the enclosing channel
    // span (per-phase attribution totals are unchanged) but nest
    // deeper, so critical-path blame can name the die whose backlog
    // held a request up: a stalled or oversubscribed die shows as a
    // long "wait" on every victim queued behind it. The "busy" span's
    // end is in the future, which is safe — the completion event at
    // exactly that tick keeps the trace's clamp window covering it.
    TrackId track =
        tracer->track(dieTrackNames_[ch * params_.diesPerChannel + d]);
    Tick now = eq_.now();
    Tick start = std::max(now, die(ch, d).freeAt());
    if (start > now)
        tracer->span(track, "wait", phase, trace_id, now, start);
    tracer->span(track, "busy", phase, trace_id, start, start + service);
}

void
FlashArray::stallDie(unsigned ch, unsigned d, Tick duration)
{
    recssd_assert(ch < params_.numChannels && d < params_.diesPerChannel,
                  "stallDie target out of range");
    die(ch, d).acquire(duration, []() {});
}

void
FlashArray::addReadInflation(Tick until, double factor)
{
    recssd_assert(factor >= 1.0, "inflation factor must be >= 1");
    inflations_.push_back({until, factor});
}

Tick
FlashArray::backlogFor(Ppn ppn) const
{
    auto addr = FlashAddress::decode(ppn, params_);
    Tick ch_free = channels_[addr.channel]->freeAt();
    Tick die_free =
        dies_[addr.channel * params_.diesPerChannel + addr.die]->freeAt();
    return std::max(ch_free, die_free);
}

void
FlashArray::readPage(Ppn ppn, ReadCallback done, std::uint64_t trace_id)
{
    recssd_assert(ppn < params_.totalPages(), "PPN out of range");
    auto addr = FlashAddress::decode(ppn, params_);
    pageReads_.inc();

    // One span covers the whole operation — command queueing, tR on
    // the die, data transfer — on the owning channel's track.
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        span = tracer->begin(tracer->track(channelTrackNames_[addr.channel]),
                             "read", Phase::FlashRead, trace_id);
    }

    // Phase 1: command issue occupies the channel bus. The op record
    // carries the read through all three phases; the phase
    // continuations capture only its index.
    std::uint32_t op = reads_.put(
        ReadOp{std::move(done), ppn, span, trace_id, addr.channel, addr.die});
    channel(addr.channel).acquire(params_.cmdLatency,
                                  [this, op]() { readArray(op); });
}

void
FlashArray::readArray(std::uint32_t op)
{
    // Phase 2: array read occupies the die (plus any injected read
    // retries on marginal cells).
    const ReadOp &read = reads_[op];
    Tick service = arrayReadTime();
    emitDieSpans(read.channel, read.die, Phase::FlashRead, service,
                 read.traceId);
    die(read.channel, read.die)
        .acquire(service, [this, op]() { readTransfer(op); });
}

void
FlashArray::readTransfer(std::uint32_t op)
{
    // Phase 3: page data crosses the channel bus.
    channel(reads_[op].channel)
        .acquire(params_.pageTransferTime(), [this, op]() { finishRead(op); });
}

void
FlashArray::finishRead(std::uint32_t op)
{
    // The flash layer is below the L2P map: the record's ppn is this
    // read's physical target, not a mapping snapshot. The log-
    // structured FTL never rewrites a live ppn, so the bytes under it
    // are stable until erase.
    RECSSD_DEFERRED_SAFE("physical address, not mapping state");
    // The record is freed before `done` runs, so a read issued from
    // `done` may reuse it.
    ReadOp read = reads_.take(op);
    if (Tracer *tracer = tracerOf(eq_))
        tracer->end(read.span);
    read.done(PageView(store_, read.ppn));
}

void
FlashArray::writePage(Ppn ppn, DataStore::Page data, DoneCallback done,
                      std::uint64_t trace_id)
{
    recssd_assert(ppn < params_.totalPages(), "PPN out of range");
    auto addr = FlashAddress::decode(ppn, params_);
    pageWrites_.inc();

    // Functional content lands immediately; only timing is deferred.
    store_.write(ppn, std::move(data));

    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        span = tracer->begin(tracer->track(channelTrackNames_[addr.channel]),
                             "program", Phase::FlashWrite, trace_id);
    }

    // Command + data transfer occupy the channel, then tPROG the die.
    Tick xfer = params_.cmdLatency + params_.pageTransferTime();
    std::uint32_t op = programs_.put(
        DoneOp{std::move(done), span, trace_id, addr.channel, addr.die});
    channel(addr.channel).acquire(xfer, [this, op]() {
        const DoneOp &prog = programs_[op];
        emitDieSpans(prog.channel, prog.die, Phase::FlashWrite,
                     params_.programLatency, prog.traceId);
        die(prog.channel, prog.die)
            .acquire(params_.programLatency, [this, op]() {
                DoneOp prog = programs_.take(op);
                if (Tracer *tracer = tracerOf(eq_))
                    tracer->end(prog.span);
                if (prog.done)
                    prog.done();
            });
    });
}

void
FlashArray::eraseBlock(Ppn any_ppn_in_block, DoneCallback done)
{
    recssd_assert(any_ppn_in_block < params_.totalPages(), "PPN out of range");
    auto addr = FlashAddress::decode(any_ppn_in_block, params_);
    blockErases_.inc();

    // Drop functional content of the whole block.
    for (std::uint64_t pg = 0; pg < params_.pagesPerBlock; ++pg) {
        store_.erase(
            FlashAddress::encode(addr.channel, addr.die, addr.block, pg,
                                 params_));
    }

    std::uint32_t op = programs_.put(DoneOp{
        std::move(done), invalidSpan, 0, addr.channel, addr.die});
    channel(addr.channel).acquire(params_.cmdLatency, [this, op]() {
        DoneOp erase = programs_.take(op);
        die(erase.channel, erase.die)
            .acquire(params_.eraseLatency, std::move(erase.done));
    });
}

}  // namespace recssd
