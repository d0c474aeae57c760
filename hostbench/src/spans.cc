#include "hostbench/src/spans.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "hostbench/src/host_clock.h"

namespace hostbench
{

namespace
{

/** Parent duration minus the union of its children's clipped spans. */
std::int64_t
selfFromChildren(const std::vector<HostSpan> &spans, SpanIndex span,
                 const std::vector<SpanIndex> &children)
{
    const HostSpan &p = spans[span];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (SpanIndex c : children) {
        std::int64_t lo = std::max(spans[c].startNs, p.startNs);
        std::int64_t hi = std::min(spans[c].endNs, p.endNs);
        if (lo < hi)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool in_run = false;
    for (const auto &[lo, hi] : covered) {
        if (in_run && lo <= run_hi) {
            run_hi = std::max(run_hi, hi);
            continue;
        }
        if (in_run)
            union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        in_run = true;
    }
    if (in_run)
        union_ns += run_hi - run_lo;
    return p.durationNs() - union_ns;
}

std::vector<std::vector<SpanIndex>>
childLists(const std::vector<HostSpan> &spans)
{
    std::vector<std::vector<SpanIndex>> children(spans.size());
    for (SpanIndex i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != noSpan)
            children.at(spans[i].parent).push_back(i);
    }
    return children;
}

}  // namespace

std::int64_t
selfTimeNs(const std::vector<HostSpan> &spans, SpanIndex span)
{
    return selfFromChildren(spans, span, childLists(spans).at(span));
}

SpanIndex
SpanRecorder::open(const std::string &name, SpanIndex parent,
                    std::uint64_t request_id)
{
    HostSpan s;
    s.name = name;
    s.parent = parent;
    s.requestId = request_id;
    s.startNs = hostNowNs();
    s.endNs = s.startNs;
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
}

void
SpanRecorder::close(SpanIndex span)
{
    spans_.at(span).endNs = hostNowNs();
}

void
SpanRecorder::writeJsonl(std::ostream &os) const
{
    const auto children = childLists(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const HostSpan &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"parent\":";
        if (s.parent == noSpan)
            os << "null";
        else
            os << s.parent;
        os << ",\"request_id\":" << s.requestId
           << ",\"self_ns\":" << selfFromChildren(spans_, i, children[i])
           << "}\n";
    }
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const std::string &name,
                       SpanIndex parent, std::uint64_t request_id)
    : recorder_(recorder)
{
    if (recorder_)
        index_ = recorder_->open(name, parent, request_id);
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_)
        recorder_->close(index_);
}

}  // namespace hostbench
