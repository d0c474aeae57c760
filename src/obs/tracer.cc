#include "src/obs/tracer.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "src/common/logging.h"

namespace recssd
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

TrackId
Tracer::track(const std::string &name)
{
    auto it = trackIds_.find(name);
    if (it != trackIds_.end())
        return it->second;
    TrackId id = static_cast<TrackId>(trackNames_.size());
    trackNames_.push_back(name);
    trackIds_.emplace(name, id);
    return id;
}

const char *
Tracer::internName(const std::string &name)
{
    auto it = internedIdx_.find(name);
    if (it != internedIdx_.end())
        return it->second;
    internedNames_.push_back(name);
    const char *stable = internedNames_.back().c_str();
    internedIdx_.emplace(name, stable);
    return stable;
}

SpanId
Tracer::beginRequest(const char *name, std::uint64_t req)
{
    recssd_assert(req != 0, "request spans need a nonzero id");
    SpanId id = begin(track("requests"), name, Phase::Request, req);
    roots_.emplace(req, id);
    return id;
}

void
Tracer::setRequestParent(std::uint64_t req, std::uint64_t parent)
{
    auto it = roots_.find(req);
    if (it != roots_.end())
        spans_[it->second].parent = parent;
}

SpanId
Tracer::begin(TrackId track, const char *name, Phase phase,
              std::uint64_t req)
{
    SpanRecord rec;
    rec.track = track;
    rec.name = name;
    rec.phase = phase;
    rec.req = req;
    rec.begin = eq_.now();
    spans_.push_back(rec);
    ++open_;
    return spans_.size() - 1;
}

void
Tracer::end(SpanId id)
{
    if (id == invalidSpan)
        return;
    recssd_assert(id < spans_.size(), "bogus span id");
    recssd_assert(spans_[id].end == maxTick, "span closed twice");
    spans_[id].end = eq_.now();
    recssd_assert(open_ > 0, "open-span underflow");
    --open_;
}

void
Tracer::span(TrackId track, const char *name, Phase phase,
             std::uint64_t req, Tick begin, Tick end)
{
    recssd_assert(begin <= end, "span ends before it begins");
    SpanRecord rec;
    rec.track = track;
    rec.name = name;
    rec.phase = phase;
    rec.req = req;
    rec.begin = begin;
    rec.end = end;
    spans_.push_back(rec);
}

void
Tracer::instant(TrackId track, const char *name, std::uint64_t req)
{
    span(track, name, Phase::Other, req, eq_.now(), eq_.now());
}

const SpanRecord *
Tracer::rootOf(std::uint64_t req) const
{
    auto it = roots_.find(req);
    return it == roots_.end() ? nullptr : &spans_[it->second];
}

namespace
{

/** Ticks (ns) to the trace format's microsecond timestamps. */
void
printTs(std::ostream &os, Tick t)
{
    // Emit as an exact decimal (ns / 1000) rather than going through
    // a double, so nanosecond resolution survives the round trip.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", t / 1000,
                  static_cast<unsigned>(t % 1000));
    os << buf;
}

}  // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    Tick now = eq_.now();
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Track (thread) name metadata so Perfetto labels the lanes.
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(trackNames_[t]) << "\"}}";
    }

    for (const SpanRecord &s : spans_) {
        Tick end = s.end == maxTick ? now : s.end;
        if (s.phase == Phase::Request) {
            // Async begin/end pair grouped by request id: concurrent
            // requests each get their own ribbon.
            sep();
            os << "{\"ph\":\"b\",\"cat\":\"request\",\"id\":" << s.req
               << ",\"pid\":1,\"tid\":" << s.track + 1 << ",\"name\":\""
               << jsonEscape(s.name) << "\",\"ts\":";
            printTs(os, s.begin);
            if (s.parent != 0)
                os << ",\"args\":{\"parent\":" << s.parent << "}";
            os << "}";
            sep();
            os << "{\"ph\":\"e\",\"cat\":\"request\",\"id\":" << s.req
               << ",\"pid\":1,\"tid\":" << s.track + 1 << ",\"name\":\""
               << jsonEscape(s.name) << "\",\"ts\":";
            printTs(os, end);
            os << "}";
            continue;
        }
        sep();
        const char *ph = s.begin == end ? "i" : "X";
        os << "{\"ph\":\"" << ph << "\",\"cat\":\""
           << phaseName(s.phase) << "\",\"pid\":1,\"tid\":" << s.track + 1
           << ",\"name\":\"" << jsonEscape(s.name) << "\",\"ts\":";
        printTs(os, s.begin);
        if (s.begin != end) {
            os << ",\"dur\":";
            printTs(os, end - s.begin);
        } else {
            os << ",\"s\":\"t\"";
        }
        if (s.req != 0)
            os << ",\"args\":{\"req\":" << s.req << "}";
        os << "}";
    }
    os << "\n]}\n";
}

}  // namespace recssd
