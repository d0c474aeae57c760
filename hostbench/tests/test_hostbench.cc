/**
 * @file
 * Tests of the benchmark's own machinery: span self-time arithmetic,
 * the metric-name grammar, the catalog against BENCHMARK.json, the
 * result line, seed plumbing through a shortened workload, the DRAM
 * oracle, and the ladder's op stream against a runner's lookups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hostbench/src/ladder.h"
#include "hostbench/src/oracle.h"
#include "hostbench/src/report.h"
#include "hostbench/src/spans.h"
#include "hostbench/src/workloads.h"

using namespace hostbench;
using namespace recssd;

namespace
{

HostSpan
span(std::int64_t start, std::int64_t end, SpanIndex parent = noSpan)
{
    HostSpan s;
    s.name = "s";
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

/** A workload cut down to a few queries so a rep takes milliseconds. */
WorkloadSpec
shortened(const std::string &name)
{
    WorkloadSpec spec = *findWorkload(name);
    spec.queries = 6;
    spec.warmup = 2;
    return spec;
}

/** (name, unit) pairs of one BENCHMARK.json metric array. */
std::vector<std::pair<std::string, std::string>>
benchmarkJsonMetrics(const std::string &section)
{
    std::ifstream in(HOSTBENCH_JSON);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    std::size_t at = json.find("\"" + section + "\"");
    EXPECT_NE(at, std::string::npos) << section;
    std::size_t open = json.find('[', at);
    std::size_t close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    std::vector<std::pair<std::string, std::string>> out;
    static const std::regex entry(
        "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

}  // namespace

TEST(SelfTime, LeafSpanKeepsItsDuration)
{
    std::vector<HostSpan> s = {span(0, 100)};
    EXPECT_EQ(selfTimeNs(s, 0), 100);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    std::vector<HostSpan> s = {span(0, 100), span(10, 30, 0),
                               span(20, 50, 0), span(60, 70, 0)};
    // Covered: [10,50) and [60,70) = 50 ns.
    EXPECT_EQ(selfTimeNs(s, 0), 50);
}

TEST(SelfTime, ChildrenAreClippedToTheParent)
{
    std::vector<HostSpan> s = {span(100, 200), span(50, 120, 0),
                               span(190, 300, 0)};
    EXPECT_EQ(selfTimeNs(s, 0), 100 - 20 - 10);
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren)
{
    std::vector<HostSpan> s = {span(0, 100), span(10, 60, 0),
                               span(20, 30, 1), span(40, 45, 1)};
    EXPECT_EQ(selfTimeNs(s, 0), 50);
    EXPECT_EQ(selfTimeNs(s, 1), 35);
    EXPECT_EQ(selfTimeNs(s, 2), 10);
}

TEST(SelfTime, AdjacentAndIdenticalChildren)
{
    std::vector<HostSpan> s = {span(0, 100), span(10, 20, 0),
                               span(20, 30, 0), span(10, 30, 0)};
    EXPECT_EQ(selfTimeNs(s, 0), 80);
}

TEST(SelfTime, RecorderWritesSelfTimes)
{
    SpanRecorder rec;
    SpanIndex root = rec.open("root");
    SpanIndex child = rec.open("child", root, 7);
    rec.close(child);
    rec.close(root);
    std::ostringstream os;
    rec.writeJsonl(os);
    EXPECT_NE(os.str().find("\"name\":\"child\""), std::string::npos);
    EXPECT_NE(os.str().find("\"request_id\":7"), std::string::npos);
    EXPECT_NE(os.str().find("\"parent\":0"), std::string::npos);
    EXPECT_GE(selfTimeNs(rec.spans(), root), 0);
}

TEST(MetricNames, Grammar)
{
    for (const char *ok : {"host_qps", "common.events_per_query", "a-b.c_1",
                           "9lives", "X"})
        EXPECT_TRUE(validMetricName(ok)) << ok;
    for (const char *bad : {"", ".x", "_x", "-x", "a b", "a/b", "a\"b",
                            "naïve"})
        EXPECT_FALSE(validMetricName(bad)) << bad;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(MetricNames, CatalogNamesAreValidAndUnique)
{
    std::set<std::string> seen;
    for (const auto *catalog : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &m : *catalog) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
        }
    }
}

TEST(Catalog, MatchesBenchmarkJson)
{
    const std::pair<const char *, const std::vector<MetricDef> *> sections[] =
        {{"end_to_end", &endToEndMetrics()},
         {"per_layer", &perLayerMetrics()}};
    for (const auto &[section, catalog] : sections) {
        auto listed = benchmarkJsonMetrics(section);
        ASSERT_EQ(listed.size(), catalog->size()) << section;
        for (std::size_t i = 0; i < listed.size(); ++i) {
            EXPECT_EQ(listed[i].first, (*catalog)[i].name) << section;
            EXPECT_EQ(listed[i].second, (*catalog)[i].unit)
                << listed[i].first;
        }
    }
}

TEST(Catalog, WorkloadsMatchBenchmarkJson)
{
    std::ifstream in(HOSTBENCH_JSON);
    std::stringstream text;
    text << in.rdbuf();
    for (const WorkloadSpec &w : workloads()) {
        EXPECT_NE(text.str().find("{\"name\": \"" + w.name + "\""),
                  std::string::npos)
            << w.name;
    }
}

TEST(Result, PrintsEveryMetricWithItsUnit)
{
    for (const auto *catalog : {&endToEndMetrics(), &perLayerMetrics()}) {
        MetricValues values;
        for (const MetricDef &m : *catalog)
            values[m.name] = 1.5;
        std::string line;
        ASSERT_EQ(formatResult(*catalog, values, true, 3, 0, line), "");
        EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, "
                             "\"failed\": 0, \"metrics\": {",
                             0),
                  0u);
        for (const MetricDef &m : *catalog) {
            EXPECT_NE(line.find(std::string("\"") + m.name +
                                "\": {\"value\": 1.5, \"unit\": \"" +
                                m.unit + "\"}"),
                      std::string::npos)
                << m.name;
        }
    }
}

TEST(Result, RefusesMissingOrExtraMetrics)
{
    const auto &catalog = endToEndMetrics();
    MetricValues values;
    for (const MetricDef &m : catalog)
        values[m.name] = 1.0;
    std::string line;
    MetricValues missing = values;
    missing.erase(catalog.front().name);
    EXPECT_NE(formatResult(catalog, missing, true, 1, 0, line), "");
    MetricValues extra = values;
    extra["not_in_catalog"] = 1.0;
    EXPECT_NE(formatResult(catalog, extra, true, 1, 0, line), "");
    values[catalog.front().name] = std::nan("");
    EXPECT_NE(formatResult(catalog, values, true, 1, 0, line), "");
}

TEST(Seeds, SameSeedSameDigestOtherSeedOtherDigest)
{
    for (const char *name : {"ndp_4ssd_uniform", "base_1ssd_zipf"}) {
        WorkloadSpec spec = shortened(name);
        RepResult a = runRep(spec, 1, false, "unused", nullptr, noSpan, 1);
        RepResult b = runRep(spec, 1, false, "unused", nullptr, noSpan, 2);
        RepResult c = runRep(spec, 2, false, "unused", nullptr, noSpan, 3);
        EXPECT_EQ(a.digest, b.digest) << name;
        EXPECT_NE(a.digest, c.digest) << name;
        EXPECT_EQ(a.completed, spec.queries) << name;
        EXPECT_GT(a.events, 0u) << name;
    }
}

TEST(Seeds, ObservabilityDoesNotChangeTheSimulation)
{
    WorkloadSpec spec = shortened("ndp_4ssd_uniform");
    RepResult t = runRep(spec, 5, true, "hostbench_test_obs", nullptr,
                         noSpan, 1);
    RepResult p = runRep(spec, 5, false, "hostbench_test_obs", nullptr,
                         noSpan, 1);
    EXPECT_EQ(t.digest, p.digest);
    EXPECT_GT(t.traceSpans, 0u);
    EXPECT_GT(t.traceBytes, 0u);
}

TEST(Oracle, ServedMachinesMatchDram)
{
    for (const WorkloadSpec &w : workloads()) {
        WorkloadSpec spec = shortened(w.name);
        OracleTally tally;
        RepResult r = runRep(spec, 3, false, "unused", nullptr, noSpan, 1,
                             &tally);
        EXPECT_GE(tally.checked, 16u) << w.name;
        EXPECT_EQ(tally.mismatches, 0u) << w.name;
        // Only the tenant mix updates rows, and the post-serve check
        // reads some of them.
        EXPECT_EQ(tally.updatedRows > 0, r.updatesApplied > 0) << w.name;
    }
}

TEST(Oracle, UpdatedRowsFailWithoutTheAllowance)
{
    const WorkloadSpec &spec = *findWorkload("qos_mixed_rw_gc");
    Machine m = buildMachine(spec, 3);
    TenantServeStats s = runServeTenants(*m.sys, runnerOptions(spec, 3),
                                         tenantConfig(spec, 3));
    ASSERT_GT(s.perTenant.back().updatesApplied, 0u);
    OracleTally strict;
    checkServed(spec, 3, m, 16, 0, strict);
    EXPECT_GT(strict.mismatches, 0u);
}

TEST(Oracle, BaselineRungsUseTheHostCache)
{
    const WorkloadSpec &spec = *findWorkload("base_1ssd_zipf");
    Machine m = buildMachine(spec, 4);
    Backends b = makeBackends(*m.sys, spec);
    ASSERT_NE(b.hostCache, nullptr);
    OpStream s = buildOps(m.runner->ssdTableDescs(), m.runner->model(),
                          m.runner->options(), spec.batch, 2);
    OracleTally tally;
    for (const SlsOp &op : s.ops)
        checkOp(*m.sys, *b.sharded, op, 0, tally);
    EXPECT_EQ(tally.mismatches, 0u);
    EXPECT_GT(b.hostCache->hits(), 0u);
}

TEST(Ops, LadderStreamIsTheRowsTheRunnerLooksUp)
{
    // A baseline runner with a host cache large enough to keep every
    // row of one query records exactly the rows that query looked up.
    for (const WorkloadSpec &w : workloads()) {
        WorkloadSpec spec = w;
        spec.backend = EmbeddingBackendKind::BaselineSsd;
        spec.hostLruCache = true;
        Machine m = buildMachine(spec, 6);
        ModelRunner runner(*m.sys, modelFor(spec), runnerOptions(spec, 6));
        QueryShape shape;
        shape.batchSize = spec.batch;
        runner.launchQuery(shape, [](Tick) {});
        m.sys->eq().run();
        HostEmbeddingCache &cache = *runner.hostCache();
        const std::uint64_t looked_up = cache.hits() + cache.misses();

        OpStream s = buildOps(runner.ssdTableDescs(), runner.model(),
                              runner.options(), spec.batch, 1);
        EXPECT_EQ(s.ops.size(),
                  opsPerQuery(runner.options(), spec.batch,
                              runner.ssdTableDescs().size()))
            << w.name;
        std::uint64_t lookups = 0;
        std::uint64_t missing = 0;
        for (const SlsOp &op : s.ops) {
            lookups += op.totalLookups();
            for (const auto &rows : op.indices) {
                for (RowId row : rows) {
                    if (!cache.get(op.table->id, op.table->globalRow(row)))
                        ++missing;
                }
            }
        }
        EXPECT_EQ(lookups, looked_up) << w.name;
        EXPECT_EQ(missing, 0u) << w.name;
    }
}
