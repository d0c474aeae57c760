/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * the simulator's layers (traced mode only). Spans stay in memory and
 * are written out once, when the benchmark ends.
 */

#ifndef HOSTBENCH_SPANS_H
#define HOSTBENCH_SPANS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hostbench
{

using SpanIndex = std::size_t;
constexpr SpanIndex noSpan = ~SpanIndex(0);

struct HostSpan
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    SpanIndex parent = noSpan;
    /** Identifies one request (a serve rep, a ladder op); 0 = none. */
    std::uint64_t requestId = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

/**
 * A layer's self time: the span's duration minus the part of its
 * interval that its direct children cover. Children may overlap each
 * other or stick out of the parent; each covered nanosecond inside the
 * parent is subtracted once.
 */
std::int64_t selfTimeNs(const std::vector<HostSpan> &spans, SpanIndex span);

class SpanRecorder
{
  public:
    /** Open a span now; `parent` is noSpan for a root. */
    SpanIndex open(const std::string &name, SpanIndex parent = noSpan,
                    std::uint64_t request_id = 0);
    /** Close a span now. */
    void close(SpanIndex span);

    const std::vector<HostSpan> &spans() const { return spans_; }

    /** One JSON object per line, in begin order. */
    void writeJsonl(std::ostream &os) const;

  private:
    std::vector<HostSpan> spans_;
};

/**
 * RAII span: records only when given a recorder, so the untraced
 * end-to-end runs pay one null check per call site.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               SpanIndex parent = noSpan, std::uint64_t request_id = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanIndex index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    SpanIndex index_ = noSpan;
};

}  // namespace hostbench

#endif  // HOSTBENCH_SPANS_H
