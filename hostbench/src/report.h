/**
 * @file
 * The benchmark's metric catalog and its one-line JSON result. The
 * catalog is the single list of metric names and units; BENCHMARK.json
 * at the repository root must list the same names with the same units
 * (checked by the benchmark's tests).
 */

#ifndef HOSTBENCH_REPORT_H
#define HOSTBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by every untraced run (BENCHMARK.json "end_to_end"). */
const std::vector<MetricDef> &endToEndMetrics();

/** Printed by every traced run (BENCHMARK.json "per_layer"). */
const std::vector<MetricDef> &perLayerMetrics();

/** Metric-name grammar: non-empty, at most 64 of [A-Za-z0-9_.-],
 *  starting with a letter or digit. */
bool validMetricName(std::string_view name);

/** Name -> measured value; printed in catalog order. */
using MetricValues = std::map<std::string, double>;

/**
 * Build the result line {"correct", "attempted", "failed", "metrics"},
 * every catalog metric as {"value", "unit"}, into `out`. Returns "" on
 * success, or why the values cannot be printed: a catalog metric is
 * missing, a value the catalog lacks is present, or a value is not
 * finite.
 */
std::string formatResult(const std::vector<MetricDef> &catalog,
                         const MetricValues &values, bool correct,
                         std::uint64_t attempted, std::uint64_t failed,
                         std::string &out);

/** 64-bit FNV-1a, for the simulated-stats digest. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** Digest as 16 lowercase hex digits. */
std::string hexDigest(std::uint64_t digest);

}  // namespace hostbench

#endif  // HOSTBENCH_REPORT_H
