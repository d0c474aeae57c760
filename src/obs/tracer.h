/**
 * @file
 * Sim-time span tracer.
 *
 * Components record nested spans keyed by a request id as a query
 * flows host CPU -> batch scheduler -> UNVMe driver -> NVMe/PCIe ->
 * FTL -> flash (or the NDP SLS engine) -> completion. Timestamps come
 * straight from the event queue, so tracing never reads a wall clock
 * and never perturbs simulated timing: an enabled tracer only appends
 * to in-memory vectors, and a disabled tracer costs one null-pointer
 * check at each instrumentation point (`tracerOf` returns nullptr).
 *
 * Exports Chrome trace-event JSON (load `trace.json` in Perfetto or
 * chrome://tracing): resource spans become complete ("X") events on
 * named tracks, request roots become async ("b"/"e") events grouped by
 * request id, so one request reads as one ribbon across the machine.
 */

#ifndef RECSSD_OBS_TRACER_H
#define RECSSD_OBS_TRACER_H

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/types.h"
#include "src/obs/phase.h"

namespace recssd
{

/** Index of a span in the tracer's record vector. */
using SpanId = std::size_t;
constexpr SpanId invalidSpan = ~SpanId(0);

/** Index of a named track (rendered as one Perfetto thread). */
using TrackId = std::uint32_t;

/** One recorded span. `end == maxTick` while still open. */
struct SpanRecord
{
    TrackId track = 0;
    const char *name = "";    ///< static string; never freed
    Phase phase = Phase::Other;
    std::uint64_t req = 0;    ///< owning request id (0 = none)
    std::uint64_t parent = 0; ///< parent request id (roots only)
    Tick begin = 0;
    Tick end = maxTick;
};

class Tracer
{
  public:
    explicit Tracer(EventQueue &eq) : eq_(eq) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /**
     * Turn tracing on/off and (un)hook this tracer into the event
     * queue so `tracerOf` finds it at every instrumentation point.
     */
    void
    setEnabled(bool on)
    {
        enabled_ = on;
        eq_.setTracer(on ? this : nullptr);
    }

    /** Intern a track by name; repeated calls return the same id. */
    TrackId track(const std::string &name);

    /**
     * Intern a runtime-built span label. `SpanRecord::name` stores a
     * raw pointer, so a name composed at runtime (per-tenant labels
     * like "query.victim") must outlive every span that uses it:
     * interned strings live as long as the tracer, and repeated calls
     * with equal text return the same pointer.
     */
    const char *internName(const std::string &name);

    /** Fresh request id (query, fused batch, command chain, ...). */
    std::uint64_t newRequestId() { return ++nextReq_; }

    /**
     * Open a root span for a request. Shows up as an async event in
     * the exported trace; the attribution pass treats its interval as
     * the request's end-to-end latency.
     */
    SpanId beginRequest(const char *name, std::uint64_t req)
        RECSSD_SPAN_BEGIN;

    /** Link a request to the fused batch that executes it. */
    void setRequestParent(std::uint64_t req, std::uint64_t parent);

    /** Open a span now; `end` stamps the closing time. Every begun
     *  span must be ended or handed off on every path (sim-lint R7):
     *  the exporter clamps leaked spans, but the attribution pass
     *  silently loses the phase. */
    SpanId begin(TrackId track, const char *name, Phase phase,
                 std::uint64_t req = 0) RECSSD_SPAN_BEGIN;

    /** Close an open span at the current tick. */
    void end(SpanId id) RECSSD_SPAN_END;

    /** Record an already-closed span with explicit begin/end ticks. */
    void span(TrackId track, const char *name, Phase phase,
              std::uint64_t req, Tick begin, Tick end);

    /** Zero-duration marker (arrivals, GC kicks, drops). */
    void instant(TrackId track, const char *name, std::uint64_t req = 0);

    const std::vector<SpanRecord> &spans() const { return spans_; }
    const std::vector<std::string> &tracks() const { return trackNames_; }

    /** Root span of a request, if one was opened. */
    const SpanRecord *rootOf(std::uint64_t req) const;

    /** Spans still open (diagnostics; a drained sim should have 0). */
    std::size_t openSpans() const { return open_; }

    /**
     * Write the whole trace as Chrome trace-event JSON. Valid JSON
     * even with open spans (they are clamped to the current tick).
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    EventQueue &eq_;
    bool enabled_ = false;
    std::uint64_t nextReq_ = 0;
    std::size_t open_ = 0;
    /**
     * Ordering contract (determinism rule R3): every exported
     * artifact is derived from the insertion-ordered vectors below --
     * `writeChromeTrace` walks `trackNames_` then `spans_` in append
     * order, which is fixed by the event schedule.  The unordered maps
     * are point-lookup indexes only (intern + rootOf); they are never
     * iterated, so hash order cannot reach the trace bytes.
     */
    std::vector<SpanRecord> spans_;
    std::vector<std::string> trackNames_;
    std::unordered_map<std::string, TrackId> trackIds_;
    std::unordered_map<std::uint64_t, SpanId> roots_;
    /** Interned span labels: a deque so addresses stay stable as more
     *  names intern; the map is a point-lookup index, never iterated. */
    std::deque<std::string> internedNames_;
    std::unordered_map<std::string, const char *> internedIdx_;
};

/**
 * The tracer wired to a component's event queue, or nullptr when
 * tracing is off. The single check every instrumentation point pays.
 */
inline Tracer *
tracerOf(EventQueue &eq)
{
    return eq.tracer();
}

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

}  // namespace recssd

#endif  // RECSSD_OBS_TRACER_H
