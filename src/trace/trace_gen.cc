#include "src/trace/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace recssd
{

double
uniqueFractionForK(double k)
{
    // Calibration: u(0)=0.13, u(2)=0.72, exponential saturation
    // u(k) = 1 - a*exp(-b*k). Solving the K=0 and K=2 anchors gives
    // a = 0.87, b = 0.5*ln(0.87/0.28) ≈ 0.567; u(1) ≈ 0.507, close to
    // the paper's 54%.
    constexpr double a = 0.87;
    constexpr double b = 0.56687;
    if (k < 0.0)
        k = 0.0;
    return 1.0 - a * std::exp(-b * k);
}

TraceGenerator::TraceGenerator(const TraceSpec &spec, ZipfSamplerPool *zipfs)
    : spec_(spec), rng_(spec.seed)
{
    recssd_assert(spec_.universe > 0, "empty id universe");
    switch (spec_.kind) {
      case TraceKind::Zipf:
        zipf_ = zipfs ? zipfs->get(spec_.universe, spec_.zipfAlpha)
                      : std::make_shared<const ZipfSampler>(
                            spec_.universe, spec_.zipfAlpha);
        break;
      case TraceKind::LocalityK:
        pNew_ = uniqueFractionForK(spec_.k);
        recssd_assert(spec_.activeUniverse > 0, "empty active universe");
        break;
      default:
        break;
    }
}

RowId
TraceGenerator::next()
{
    switch (spec_.kind) {
      case TraceKind::Sequential: {
        RowId id = cursor_ % spec_.universe;
        ++cursor_;
        return id;
      }
      case TraceKind::Strided: {
        RowId id = cursor_ % spec_.universe;
        cursor_ += spec_.stride;
        return id;
      }
      case TraceKind::Uniform:
        return rng_.uniformInt(spec_.universe);
      case TraceKind::Zipf:
        return zipf_->sample(rng_);
      case TraceKind::LocalityK:
        return nextLocality();
    }
    panic("unreachable trace kind");
}

void
TraceGenerator::commitRequest()
{
    constexpr std::size_t kStackCap = 4096;
    // Most-recent first so this request's ids become the top of the
    // reuse stack.
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        auto pos = std::find(stack_.begin(), stack_.end(), *it);
        if (pos != stack_.end())
            stack_.erase(pos);
        stack_.insert(stack_.begin(), *it);
    }
    pending_.clear();
    if (stack_.size() > kStackCap)
        stack_.resize(kStackCap);
}

RowId
TraceGenerator::nextLocality()
{
    RowId id;
    if (stack_.empty() || rng_.bernoulli(pNew_)) {
        // Fresh id: cycle through the active universe, which keeps
        // long-run popularity near uniform (so a static partition of
        // p% of the rows captures ~p% of the traffic, §6.3).
        id = cursor_ % std::min(spec_.activeUniverse, spec_.universe);
        ++cursor_;
    } else {
        // Reuse: exponential stack distance over ids of *previous*
        // requests (promotion to MRU happens at request commit).
        auto d = static_cast<std::size_t>(
            rng_.exponential(spec_.reuseStackMean));
        d = std::min(d, stack_.size() - 1);
        id = stack_[d];
    }
    pending_.push_back(id);
    if (!inRequest_)
        commitRequest();
    return id;
}

std::vector<std::vector<RowId>>
TraceGenerator::nextBatch(std::size_t batch, std::size_t lookups)
{
    std::vector<std::vector<RowId>> out(batch);
    for (auto &list : out) {
        list.reserve(lookups);
        if (spec_.kind == TraceKind::LocalityK) {
            inRequest_ = true;
            for (std::size_t i = 0; i < lookups; ++i)
                list.push_back(next());
            inRequest_ = false;
            commitRequest();
        } else {
            for (std::size_t i = 0; i < lookups; ++i)
                list.push_back(next());
        }
    }
    return out;
}

}  // namespace recssd
