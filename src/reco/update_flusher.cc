#include "src/reco/update_flusher.h"

#include <algorithm>
#include <memory>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/embedding/synthetic_values.h"
#include "src/embedding/table_update.h"
#include "src/obs/tracer.h"

namespace recssd
{

UpdateFlusher::UpdateFlusher(System &sys,
                             std::vector<EmbeddingTableDesc> tables,
                             const UpdateStreamSpec &spec,
                             std::uint64_t seed,
                             HostEmbeddingCache *host_cache)
    : sys_(sys), tables_(std::move(tables)), spec_(spec),
      hostCache_(host_cache)
{
    recssd_assert(spec_.enabled(), "update flusher needs an enabled spec");
    recssd_assert(!tables_.empty(),
                  "update stream needs SSD-resident tables");
    // Stash the combined stream seed in the spec the stream sees, so
    // scheduleUntil is a pure function of (spec, tables, seed).
    spec_.seed = seed * 0x9e3779b97f4a7c15ull + spec.seed;
}

void
UpdateFlusher::scheduleUntil(Tick horizon)
{
    std::vector<std::uint64_t> rows;
    rows.reserve(tables_.size());
    for (const EmbeddingTableDesc &t : tables_)
        rows.push_back(t.rows);
    UpdateStream stream(spec_, std::move(rows), spec_.seed);
    // A dry pass over a copy of the stream counts the updates due by
    // the horizon, which the series reserves up front.
    std::uint64_t count = 0;
    UpdateStream dry = stream;
    for (Tick t = dry.nextGap(); t <= horizon; t += dry.nextGap(), ++count)
        dry.nextRow();
    // Stream time is relative; rebase on the current clock so callers
    // may warm the system up (prefill, profiling) before serving. One
    // lazy series per call, so a second call adds a second stream:
    // each update draws its row, then the gap to the next one.
    const Tick first = sys_.eq().now() + stream.nextGap();
    sys_.eq().scheduleSeries(first, count,
                             [this, stream = std::move(stream),
                              at = first](std::size_t, Tick &next) mutable {
                                 const UpdateDesc update = stream.nextRow();
                                 next = at += stream.nextGap();
                                 submit(update);
                             });
}

void
UpdateFlusher::submit(const UpdateDesc &update)
{
    recssd_assert(update.tableIdx < tables_.size(),
                  "update targets unknown table");
    ++submitted_;
    pending_.push_back(update);
    maybeDispatch(false);
}

void
UpdateFlusher::maybeDispatch(bool timer_fired)
{
    while (inFlight_ < spec_.maxInFlight && !pending_.empty() &&
           (pending_.size() >= spec_.flushRows || timer_fired)) {
        if (admission_ != nullptr && !admitted_) {
            if (admissionWait_)
                return;  // a maturity wakeup is already scheduled
            Tick now = sys_.eq().now();
            Tick allowed = admission_(now);
            if (allowed > now) {
                // Budget exhausted: the charge is banked (`admitted_`
                // at the wakeup) and the flush waits for it to mature.
                admissionWait_ = true;
                ++deferrals_;
                sys_.eq().schedule(allowed, [this, timer_fired]() {
                    RECSSD_CAPTURES_MAPPING("flusher outlives the "
                                            "drained event queue; the "
                                            "banked charge is consumed "
                                            "by exactly one dispatch");
                    admissionWait_ = false;
                    admitted_ = true;
                    maybeDispatch(timer_fired);
                });
                return;
            }
            admitted_ = true;
        }
        admitted_ = false;  // one charge pays for one flush
        dispatchOne();
        // A timeout flushes one partial batch; further dispatches in
        // this round must earn a full one.
        timer_fired = false;
    }
    if (!pending_.empty() && inFlight_ < spec_.maxInFlight &&
        !admissionWait_)
        armTimer();
}

void
UpdateFlusher::armTimer()
{
    if (timerArmed_)
        return;
    timerArmed_ = true;
    std::uint64_t gen = ++timerGen_;
    sys_.eq().schedule(sys_.eq().now() + spec_.maxWait, [this, gen]() {
        if (gen != timerGen_)
            return;
        timerArmed_ = false;
        maybeDispatch(true);
    });
}

void
UpdateFlusher::dispatchOne()
{
    ++inFlight_;
    ++flushes_;
    // Cancel any armed timer; it re-arms for the remainder.
    ++timerGen_;
    timerArmed_ = false;

    std::size_t n = std::min<std::size_t>(pending_.size(), spec_.flushRows);
    std::vector<UpdateDesc> batch(pending_.begin(),
                                  pending_.begin() +
                                      static_cast<std::ptrdiff_t>(n));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));

    std::uint64_t trace_id = 0;
    SpanId root = invalidSpan;
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(sys_.eq())) {
        trace_id = tracer->newRequestId();
        root = tracer->beginRequest("update", trace_id);
        span = tracer->begin(tracer->track("host.update"), "update_flush",
                             Phase::HostCompute, trace_id);
    }

    struct FlushState
    {
        unsigned left = 0;
        bool issued = false;  ///< all writes issued (join armed)
    };
    auto state = std::make_shared<FlushState>();
    Tick start = sys_.eq().now();
    auto complete = [this, root, span, start, rows = n]() {
        if (Tracer *tracer = tracerOf(sys_.eq())) {
            tracer->end(span);
            tracer->end(root);
        }
        flushLatency_.record(sys_.eq().now() - start);
        applied_ += rows;
        --inFlight_;
        maybeDispatch(false);
    };
    auto join = [state, complete]() {
        if (--state->left == 0 && state->issued)
            complete();
    };

    for (const UpdateDesc &u : batch) {
        const EmbeddingTableDesc &global = tables_[u.tableIdx];
        std::uint64_t version = ++versions_[{u.tableIdx, u.row}];
        std::vector<float> values =
            synthetic::updatedVector(global, u.row, version);
        for (const ShardRouter::UpdateTarget &target :
             sys_.router().updateTargets(global.id, u.row)) {
            if (sys_.ssd(target.shard).controller().dead()) {
                // A dead controller swallows commands (the completion
                // never fires); skip it so faulted runs cannot hang.
                // Replicas that are still alive converge normally.
                ++skippedDead_;
                continue;
            }
            ++state->left;
            ++replicaWrites_;
            updateRow(sys_.driver(target.shard), sys_.queues(target.shard),
                      *target.desc, target.localRow, values, join,
                      trace_id, hostCache_);
        }
    }
    state->issued = true;
    if (state->left == 0) {
        // Every target was dead; the flush still completes (and counts
        // the rows as applied from the stream's point of view).
        complete();
    }
}

}  // namespace recssd
