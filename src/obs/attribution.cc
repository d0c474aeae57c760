#include "src/obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <string>

#include "src/obs/critical_path.h"

namespace recssd
{

namespace
{

/** Each segment's span has the highest active phase, so summing span
 *  ticks by phase is exact; uncovered time lands in `other`. */
RequestAttribution
foldByPhase(const RequestSweep::Result &swept)
{
    RequestAttribution out;
    out.req = swept.req;
    out.e2e = swept.e2e;
    for (const RequestSweep::Charge &c : swept.charges)
        out.perPhase[static_cast<unsigned>(c.span->phase)] += c.ticks;
    out.perPhase[static_cast<unsigned>(Phase::Other)] += swept.uncovered;
    return out;
}

}  // namespace

RequestAttribution
attributeRequest(const Tracer &tracer, const SpanRecord &root)
{
    return foldByPhase(RequestSweep(tracer, nullptr).sweep(root));
}

AttributionReport
attribute(const Tracer &tracer, const char *root_name)
{
    RequestSweep sweep(tracer, root_name);
    std::vector<RequestAttribution> per_req;
    for (const SpanRecord *root : sweep.roots())
        per_req.push_back(foldByPhase(sweep.sweep(*root)));

    AttributionReport report;
    report.requests = static_cast<unsigned>(per_req.size());
    if (per_req.empty())
        return report;

    double named_time = 0.0;
    for (unsigned p = 0; p < numPhases; ++p) {
        Phase phase = static_cast<Phase>(p);
        if (phase == Phase::Request)
            continue;
        std::vector<double> samples;
        samples.reserve(per_req.size());
        double total = 0.0;
        for (const RequestAttribution &r : per_req) {
            double us = ticksToUs(r.perPhase[p]);
            samples.push_back(us);
            total += us;
        }
        if (total == 0.0)
            continue;
        std::sort(samples.begin(), samples.end());
        auto pct = [&](double q) {
            auto idx = static_cast<std::size_t>(q * (samples.size() - 1));
            return samples[idx];
        };
        PhaseBreakdownRow row;
        row.phase = phase;
        row.totalUs = total;
        row.meanUs = total / static_cast<double>(per_req.size());
        row.p50Us = pct(0.50);
        row.p99Us = pct(0.99);
        report.rows.push_back(row);
        if (phase != Phase::Other)
            named_time += total;
    }

    for (const RequestAttribution &r : per_req)
        report.totalRequestUs += ticksToUs(r.e2e);
    report.meanRequestUs =
        report.totalRequestUs / static_cast<double>(per_req.size());
    for (PhaseBreakdownRow &row : report.rows) {
        row.fraction = report.totalRequestUs > 0.0
                           ? row.totalUs / report.totalRequestUs
                           : 0.0;
    }
    report.coverage = report.totalRequestUs > 0.0
                          ? named_time / report.totalRequestUs
                          : 0.0;
    // Deepest phases first: the table reads device-up like Fig 8.
    std::sort(report.rows.begin(), report.rows.end(),
              [](const PhaseBreakdownRow &a, const PhaseBreakdownRow &b) {
                  return phasePriority(a.phase) > phasePriority(b.phase);
              });
    return report;
}

void
AttributionReport::print(std::ostream &os) const
{
    auto fmt = [](double v, int prec) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
        return std::string(buf);
    };
    os << "== phase attribution: " << requests << " requests, mean e2e "
       << fmt(meanRequestUs, 1) << "us ==\n";
    os << "  " << std::left << std::setw(18) << "phase" << std::right
       << std::setw(12) << "mean-us" << std::setw(12) << "p50-us"
       << std::setw(12) << "p99-us" << std::setw(9) << "share" << "\n";
    for (const PhaseBreakdownRow &row : rows) {
        os << "  " << std::left << std::setw(18) << phaseName(row.phase)
           << std::right << std::setw(12) << fmt(row.meanUs, 1)
           << std::setw(12) << fmt(row.p50Us, 1) << std::setw(12)
           << fmt(row.p99Us, 1) << std::setw(8)
           << fmt(row.fraction * 100, 1) << "%\n";
    }
    os << "phase coverage: " << fmt(coverage * 100, 2)
       << "% of request time attributed to a named phase\n";
}

void
AttributionReport::writeJson(std::ostream &os) const
{
    os << "{\"requests\":" << requests << ",\"mean_request_us\":"
       << meanRequestUs << ",\"total_request_us\":" << totalRequestUs
       << ",\"coverage\":" << coverage << ",\"phases\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PhaseBreakdownRow &row = rows[i];
        os << (i ? "," : "") << "\n{\"phase\":\""
           << jsonEscape(phaseName(row.phase)) << "\",\"mean_us\":"
           << row.meanUs << ",\"p50_us\":" << row.p50Us << ",\"p99_us\":"
           << row.p99Us << ",\"total_us\":" << row.totalUs
           << ",\"fraction\":" << row.fraction << "}";
    }
    os << "\n]}\n";
}

}  // namespace recssd
