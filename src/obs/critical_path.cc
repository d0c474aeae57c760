#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iomanip>
#include <ostream>
#include <tuple>
#include <unordered_map>

#include "src/common/audit.h"
#include "src/common/logging.h"

namespace recssd
{

namespace
{

/** A charged span's slice key: interned track id, name pointer and
 *  phase. */
struct SliceKey
{
    TrackId track;
    const char *name;
    Phase phase;

    bool operator==(const SliceKey &) const = default;
};

struct SliceKeyHash
{
    std::size_t
    operator()(const SliceKey &k) const noexcept
    {
        return std::hash<const char *>{}(k.name) ^
               (std::size_t(k.track) << 8 | std::size_t(k.phase)) *
                   0x9e3779b97f4a7c15ull;
    }
};

/**
 * Point-lookup index from a span's key to its slice in the request
 * being folded (rule R3: slice order comes from the slices vector).
 * A name pointer is compared by content the first time it is seen,
 * since runtime-interned and literal names can share text.
 */
using SliceIndex = std::unordered_map<SliceKey, std::size_t, SliceKeyHash>;

/** Index of the slice of `out` with this (track, name, phase) text,
 *  appended if there is none yet. */
std::size_t
sliceOf(RequestBlame &out, const char *track, const char *name, Phase phase)
{
    for (std::size_t i = 0; i < out.slices.size(); ++i) {
        const RequestBlame::Slice &s = out.slices[i];
        if (s.phase == phase && !std::strcmp(s.track, track) &&
            !std::strcmp(s.name, name))
            return i;
    }
    out.slices.push_back({track, name, phase, 0});
    return out.slices.size() - 1;
}

/**
 * Fold per-span ticks into per-(track, name, phase) slices, preserving
 * first-appearance order. Slice strings borrow from the tracer, which
 * outlives every report built from it. `index` is scratch reused
 * across requests.
 */
RequestBlame
foldBlame(const Tracer &tracer, const RequestSweep::Result &swept,
          SliceIndex &index)
{
    RequestBlame out;
    out.req = swept.req;
    out.e2e = swept.e2e;
    const std::vector<std::string> &tracks = tracer.tracks();
    index.clear();
    for (const RequestSweep::Charge &c : swept.charges) {
        if (c.ticks == 0)
            continue;
        const SpanRecord &span = *c.span;
        auto [it, fresh] =
            index.try_emplace({span.track, span.name, span.phase}, 0);
        if (fresh) {
            it->second = sliceOf(out, tracks[span.track].c_str(), span.name,
                                 span.phase);
        }
        out.slices[it->second].ticks += c.ticks;
    }
    if (swept.uncovered != 0) {
        out.slices[sliceOf(out, "", "other", Phase::Other)].ticks +=
            swept.uncovered;
    }
    return out;
}

}  // namespace

RequestSweep::RequestSweep(const Tracer &tracer, const char *root_name)
{
    std::vector<const SpanRecord *> all;
    for (const SpanRecord &s : tracer.spans()) {
        if (s.phase != Phase::Request) {
            if (s.req != 0)
                index_[s.req].push_back(&s);
            continue;
        }
        all.push_back(&s);
        if (root_name && !std::strcmp(s.name, root_name))
            roots_.push_back(&s);
    }
    if (roots_.empty())
        roots_ = std::move(all);
}

RequestSweep::Result
RequestSweep::sweep(const SpanRecord &root) const
{
    Result out;
    out.req = root.req;
    Tick lo = root.begin;
    Tick hi = root.end == maxTick ? root.begin : root.end;
    out.e2e = hi - lo;
    if (out.e2e == 0)
        return out;

    // Edges carry the child's collection index. Opens sort by original
    // begin, which also orders them by clamped begin.
    using Edge = std::pair<Tick, std::uint32_t>;
    std::vector<Edge> opens, closes;
    auto collect = [&](std::uint64_t req) {
        auto it = index_.find(req);
        if (it == index_.end())
            return;
        for (const SpanRecord *s : it->second) {
            Tick b = std::max(s->begin, lo);
            Tick e = std::min(s->end == maxTick ? hi : s->end, hi);
            if (b >= e)
                continue;
            auto j = static_cast<std::uint32_t>(out.charges.size());
            out.charges.push_back({s, 0});
            opens.emplace_back(s->begin, j);
            closes.emplace_back(e, j);
        }
    };
    collect(root.req);
    if (root.parent != 0)
        collect(root.parent);
    std::sort(opens.begin(), opens.end());
    std::sort(closes.begin(), closes.end());

    // Opening in (begin, index) order puts every span above all active
    // spans of its phase, so a per-phase stack holds that phase's
    // winner on top once closed spans are popped as they surface. The
    // highest phase with a live span wins the segment.
    std::vector<std::uint32_t> stacks[numPhases];
    std::vector<bool> closed(out.charges.size(), false);
    Tick cursor = lo;
    auto advanceTo = [&](Tick t) {
        if (t <= cursor)
            return;
        Tick *winner = &out.uncovered;
        for (int p = static_cast<int>(numPhases) - 1; p >= 0; --p) {
            std::vector<std::uint32_t> &stack = stacks[p];
            while (!stack.empty() && closed[stack.back()])
                stack.pop_back();
            if (!stack.empty()) {
                winner = &out.charges[stack.back()].ticks;
                break;
            }
        }
        *winner += t - cursor;
        cursor = t;
    };
    for (std::size_t o = 0, c = 0; c < closes.size();) {
        Tick open_at =
            o < opens.size() ? std::max(opens[o].first, lo) : maxTick;
        if (open_at < closes[c].first) {
            advanceTo(open_at);
            std::uint32_t j = opens[o++].second;
            stacks[static_cast<unsigned>(out.charges[j].span->phase)]
                .push_back(j);
        } else {
            advanceTo(closes[c].first);
            closed[closes[c++].second] = true;
        }
    }
    advanceTo(hi);
    return out;
}

Tick
RequestBlame::totalTicks() const
{
    Tick total = 0;
    for (const Slice &s : slices)
        total += s.ticks;
    return total;
}

bool
blameIsQueueing(const char *name)
{
    // Waiting-in-line span names across the stack: scheduler queue,
    // NVMe queue-pair grant wait, die/channel backlog wait, firmware
    // pause. Everything else is a resource doing work.
    return !std::strcmp(name, "sched_queue") ||
           !std::strcmp(name, "queue_wait") ||
           !std::strcmp(name, "wait") || !std::strcmp(name, "fw_pause");
}

RequestBlame
blameRequest(const Tracer &tracer, const SpanRecord &root)
{
    SliceIndex index;
    return foldBlame(tracer, RequestSweep(tracer, nullptr).sweep(root),
                     index);
}

std::size_t
validateSpanOrdering(const Tracer &tracer)
{
    std::size_t violations = 0;
    for (const SpanRecord &s : tracer.spans()) {
        if (s.end != maxTick && s.end < s.begin)
            ++violations;  // time ran backwards inside a span
        if (s.phase == Phase::Request && s.parent != 0) {
            if (s.parent == s.req) {
                ++violations;  // self-parent cycle
                continue;
            }
            // The parent chain must terminate in one hop: a query's
            // fused batch is itself parentless, so hedged duplicates
            // and stalled sub-ops can never form a causality cycle.
            const SpanRecord *parent = tracer.rootOf(s.parent);
            if (parent && parent->parent != 0)
                ++violations;
        }
    }
    return violations;
}

BlameReport
computeBlame(const Tracer &tracer, const char *root_name)
{
    RequestSweep sweep(tracer, root_name);
    std::vector<RequestBlame> per_req;
    SliceIndex index;
    for (const SpanRecord *root : sweep.roots())
        per_req.push_back(foldBlame(tracer, sweep.sweep(*root), index));

    const bool audit = auditEnabled();

    BlameReport report;
    report.requests = static_cast<unsigned>(per_req.size());
    if (per_req.empty())
        return report;

    // Tail population: nearest-rank p99 of end-to-end latency.
    std::vector<Tick> e2es;
    e2es.reserve(per_req.size());
    for (const RequestBlame &r : per_req)
        e2es.push_back(r.e2e);
    std::sort(e2es.begin(), e2es.end());
    Tick tail_threshold =
        e2es[static_cast<std::size_t>(0.99 * (e2es.size() - 1))];
    report.tailThresholdUs = ticksToUs(tail_threshold);

    // Aggregate rows keyed by (track, name, phase); first-appearance
    // order until the final sort. The unordered map is a point-lookup
    // index only (rule R3) — output order comes from the rows vector.
    std::unordered_map<std::string, std::size_t> rowIndex;
    auto rowFor = [&](const RequestBlame::Slice &s) -> BlameRow & {
        std::string key = std::string(s.track) + '\x1f' + s.name + '\x1f' +
                          phaseName(s.phase);
        auto [it, fresh] = rowIndex.try_emplace(key, report.rows.size());
        if (fresh) {
            report.rows.push_back(
                {s.track, s.name, s.phase, blameIsQueueing(s.name)});
        }
        return report.rows[it->second];
    };

    double queue_us = 0.0;
    double tail_queue_us = 0.0;
    for (const RequestBlame &r : per_req) {
        if (audit) {
            recssd_assert(r.totalTicks() == r.e2e,
                          "audit: blame slices of request %llu sum to "
                          "%llu ticks but e2e is %llu",
                          static_cast<unsigned long long>(r.req),
                          static_cast<unsigned long long>(r.totalTicks()),
                          static_cast<unsigned long long>(r.e2e));
        }
        bool tail = r.e2e >= tail_threshold;
        report.totalRequestUs += ticksToUs(r.e2e);
        if (tail) {
            ++report.tailRequests;
            report.tailTotalUs += ticksToUs(r.e2e);
        }
        for (const RequestBlame::Slice &s : r.slices) {
            BlameRow &row = rowFor(s);
            double us = ticksToUs(s.ticks);
            ++row.requests;
            row.totalUs += us;
            if (row.queueing)
                queue_us += us;
            if (tail) {
                row.tailUs += us;
                if (row.queueing)
                    tail_queue_us += us;
            }
        }
    }

    report.meanRequestUs =
        report.totalRequestUs / static_cast<double>(per_req.size());
    for (BlameRow &row : report.rows) {
        row.fraction = report.totalRequestUs > 0.0
                           ? row.totalUs / report.totalRequestUs
                           : 0.0;
        row.tailFraction =
            report.tailTotalUs > 0.0 ? row.tailUs / report.tailTotalUs : 0.0;
    }
    report.queueingFraction = report.totalRequestUs > 0.0
                                  ? queue_us / report.totalRequestUs
                                  : 0.0;
    report.tailQueueingFraction =
        report.tailTotalUs > 0.0 ? tail_queue_us / report.tailTotalUs : 0.0;

    // Heaviest first; ties by ascending track, name, then phase.
    std::sort(report.rows.begin(), report.rows.end(),
              [](const BlameRow &a, const BlameRow &b) {
                  return std::tie(b.totalUs, a.track, a.name, a.phase) <
                         std::tie(a.totalUs, b.track, b.name, b.phase);
              });
    return report;
}

const BlameRow *
BlameReport::find(const std::string &track, const std::string &name) const
{
    for (const BlameRow &row : rows) {
        if (row.track == track && row.name == name)
            return &row;
    }
    return nullptr;
}

void
BlameReport::print(std::ostream &os) const
{
    auto fmt = [](double v, int prec) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
        return std::string(buf);
    };
    os << "== critical-path blame: " << requests << " requests, mean e2e "
       << fmt(meanRequestUs, 1) << "us, tail = " << tailRequests
       << " requests >= " << fmt(tailThresholdUs, 1) << "us ==\n";
    os << "  " << std::left << std::setw(24) << "resource" << std::setw(14)
       << "span" << std::setw(17) << "phase" << std::setw(9) << "kind"
       << std::right << std::setw(7) << "reqs" << std::setw(12)
       << "total-us" << std::setw(9) << "share" << std::setw(11) << "tail"
       << "\n";
    for (const BlameRow &row : rows) {
        os << "  " << std::left << std::setw(24)
           << (row.track.empty() ? "(uncovered)" : row.track)
           << std::setw(14) << row.name << std::setw(17)
           << phaseName(row.phase) << std::setw(9)
           << (row.queueing ? "queue" : "service") << std::right
           << std::setw(7) << row.requests << std::setw(12)
           << fmt(row.totalUs, 1) << std::setw(8)
           << fmt(row.fraction * 100, 1) << "%" << std::setw(10)
           << fmt(row.tailFraction * 100, 1) << "%\n";
    }
    os << "queueing share: " << fmt(queueingFraction * 100, 1)
       << "% of all request time, " << fmt(tailQueueingFraction * 100, 1)
       << "% of tail time\n";
}

void
BlameReport::writeJson(std::ostream &os) const
{
    os << "{\"requests\":" << requests << ",\"mean_request_us\":"
       << meanRequestUs << ",\"total_request_us\":" << totalRequestUs
       << ",\"tail_threshold_us\":" << tailThresholdUs
       << ",\"tail_requests\":" << tailRequests << ",\"tail_total_us\":"
       << tailTotalUs << ",\"queueing_fraction\":" << queueingFraction
       << ",\"tail_queueing_fraction\":" << tailQueueingFraction
       << ",\"resources\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BlameRow &row = rows[i];
        os << (i ? "," : "") << "\n{\"track\":\"" << jsonEscape(row.track)
           << "\",\"name\":\"" << jsonEscape(row.name) << "\",\"phase\":\""
           << jsonEscape(phaseName(row.phase)) << "\",\"kind\":\""
           << (row.queueing ? "queue" : "service")
           << "\",\"requests\":" << row.requests << ",\"total_us\":"
           << row.totalUs << ",\"fraction\":" << row.fraction
           << ",\"tail_us\":" << row.tailUs << ",\"tail_fraction\":"
           << row.tailFraction << "}";
    }
    os << "\n]}\n";
}

}  // namespace recssd
