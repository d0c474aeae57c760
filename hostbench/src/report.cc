#include "hostbench/src/report.h"

#include <cmath>
#include <cstdio>

namespace hostbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"host_qps", "1/s"},     {"setup_s", "s"},
        {"peak_rss_mb", "MB"},   {"sim_p50_us", "us"},
        {"sim_p95_us", "us"},    {"sim_qps", "1/s"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"common.events_per_query", "count"},
        {"common.host_ns_per_event", "ns"},
        {"common.kernel_ns_per_event", "ns"},
        {"flash.page_reads_per_query", "count"},
        {"flash.page_writes_per_query", "count"},
        {"flash.block_erases_per_query", "count"},
        {"flash.channel_busy_frac", "ratio"},
        {"flash.host_ns_per_page", "ns"},
        {"ftl.page_cache_hit_ratio", "ratio"},
        {"ftl.cpu_busy_frac", "ratio"},
        {"ftl.gc_runs", "count"},
        {"ftl.write_amplification", "ratio"},
        {"ftl.host_ns_per_read", "ns"},
        {"ftl.host_ns_per_write", "ns"},
        {"ndp.sls_requests_per_query", "count"},
        {"ndp.embed_cache_hit_ratio", "ratio"},
        {"ndp.fence_redirects", "count"},
        {"ndp.host_ns_per_lookup", "ns"},
        {"nvme.commands_per_query", "count"},
        {"nvme.pcie_bytes_per_query", "B"},
        {"nvme.pcie_busy_frac", "ratio"},
        {"host.cpu_busy_frac", "ratio"},
        {"host.queue_depth_high_water", "count"},
        {"host.host_ns_per_command", "ns"},
        {"shard.scattered_ops_per_query", "count"},
        {"shard.subop_p95_us", "us"},
        {"shard.host_ns_per_op", "ns"},
        {"cache.host_served_frac", "ratio"},
        {"reco.avg_coalesced_samples", "count"},
        {"reco.queue_us_mean", "us"},
        {"reco.service_us_mean", "us"},
        {"reco.host_ns_per_query", "ns"},
        {"reco.serve_host_ns_per_query", "ns"},
        {"qos.limit_deferrals", "count"},
        {"qos.reservation_grants", "count"},
        {"qos.update_admission_deferrals", "count"},
        {"qos.host_ns_per_query", "ns"},
        {"obs.spans_per_query", "count"},
        {"obs.trace_bytes_per_query", "B"},
        {"obs.overhead_ratio", "ratio"},
        {"obs.blame_host_s", "s"},
        {"obs.export_host_s", "s"},
        {"sim_updates_per_s", "1/s"},
        {"failed_frac", "ratio"},
        {"unexplained_frac", "ratio"},
    };
    return defs;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9');
        if (i == 0 ? !alnum : !(alnum || c == '_' || c == '.' || c == '-'))
            return false;
    }
    return true;
}

std::string
formatResult(const std::vector<MetricDef> &catalog,
             const MetricValues &values, bool correct,
             std::uint64_t attempted, std::uint64_t failed,
             std::string &out)
{
    if (values.size() != catalog.size())
        return "metric set does not match the catalog";
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : catalog) {
        auto it = values.find(m.name);
        if (it == values.end())
            return std::string("missing metric ") + m.name;
        if (!validMetricName(m.name))
            return std::string("bad metric name ") + m.name;
        if (!std::isfinite(it->second))
            return std::string("non-finite metric ") + m.name;
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", it->second);
        if (!first)
            line += ", ";
        first = false;
        line += std::string("\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    out = line;
    return "";
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

}  // namespace hostbench
