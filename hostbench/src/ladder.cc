#include "hostbench/src/ladder.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hostbench/src/host_clock.h"
#include "hostbench/src/oracle.h"
#include "src/common/random.h"
#include "src/host/host_params.h"

namespace hostbench
{

using namespace recssd;

namespace
{

/** Queries whose SLS ops (one per table per sub-batch) the ladder runs. */
constexpr unsigned ladderQueries = 8;
/** Each rung runs this many times, each on a fresh machine; the repeat
 *  with the median host time is kept. */
constexpr int rungRepeats = 3;
constexpr std::size_t maxPageOps = 4000;
constexpr unsigned writeOps = 400;
constexpr std::uint64_t kernelEvents = 400'000;
/** Scratch pages for the write rung: the GC prefill's region, clear of
 *  every table slot. */
constexpr Lpn writeScratchBase = 8 * slsTableAlign;
constexpr std::uint64_t writeScratchPages = 3000;

struct Counters
{
    std::uint64_t flashPages = 0;
    std::uint64_t ftlReads = 0;
    std::uint64_t commands = 0;
    std::uint64_t slsRequests = 0;
};

Counters
snap(System &sys)
{
    Counters c;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        c.flashPages += sys.ssd(d).flash().pageReads();
        c.ftlReads += sys.ssd(d).ftl().hostReads();
        c.commands += sys.driver(d).commandsIssued();
        c.slsRequests += sys.ssd(d).slsEngine().requests();
    }
    return c;
}

/** Launch one op, drain the queue, and add its host time and counts. */
void
timeOp(System &sys, Rung &rung, SpanRecorder *spans, SpanIndex parent,
       const char *name, std::uint64_t lookups,
       const std::function<void()> &launch)
{
    Counters before = snap(sys);
    std::int64_t elapsed = 0;
    {
        ScopedSpan span(spans, name, parent, rung.ops + 1);
        std::int64_t t0 = hostNowNs();
        launch();
        sys.eq().run();
        elapsed = hostNowNs() - t0;
    }
    Counters after = snap(sys);
    ++rung.ops;
    rung.hostNs += elapsed;
    rung.flashPages += after.flashPages - before.flashPages;
    rung.ftlReads += after.ftlReads - before.ftlReads;
    rung.commands += after.commands - before.commands;
    rung.slsRequests += after.slsRequests - before.slsRequests;
    rung.lookups += lookups;
}

/** The ladder's ops: `ladderQueries` queries of the runner's stream. */
OpStream
ladderOps(ModelRunner &runner, const WorkloadSpec &spec)
{
    return buildOps(runner.ssdTableDescs(), runner.model(), runner.options(),
                    spec.batch, ladderQueries);
}

/** One device's share of an op (the op itself on a one-device machine). */
std::vector<std::pair<unsigned, SlsOp>>
deviceSubOps(System &sys, const SlsOp &op)
{
    std::vector<std::pair<unsigned, SlsOp>> subs;
    if (sys.numSsds() == 1) {
        subs.emplace_back(0, op);
        return subs;
    }
    for (auto &slice : sys.router().split(op)) {
        SlsOp sub;
        sub.table = slice.desc;
        sub.indices = std::move(slice.indices);
        subs.emplace_back(slice.shard, std::move(sub));
    }
    return subs;
}

Machine
ladderMachine(const WorkloadSpec &spec, std::uint64_t seed)
{
    Machine m = buildMachine(spec, seed);
    if (!m.runner) {
        m.runner = std::make_unique<ModelRunner>(*m.sys, modelFor(spec),
                                                 runnerOptions(spec, seed));
    }
    return m;
}

/**
 * Host ns per event of a bare EventQueue holding `depth` pending
 * events, each of which reschedules itself a random delay ahead.
 */
double
kernelNsPerEvent(std::size_t depth, std::uint64_t events)
{
    EventQueue eq;
    Rng rng(12345);
    std::uint64_t left = events;
    std::function<void()> fire = [&]() {
        if (left == 0)
            return;
        --left;
        eq.scheduleAfter((1 + rng.uniformInt(4000)) * nsec, fire);
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        eq.scheduleAfter((1 + rng.uniformInt(4000)) * nsec, fire);
    std::uint64_t before = eq.executed();
    std::int64_t t0 = hostNowNs();
    eq.run();
    std::int64_t elapsed = hostNowNs() - t0;
    std::uint64_t ran = eq.executed() - before;
    return ran ? static_cast<double>(elapsed) / ran : 0.0;
}

/** The repeat with the median host time (counts repeat exactly). */
Rung
medianRung(std::vector<Rung> runs)
{
    std::sort(runs.begin(), runs.end(), [](const Rung &a, const Rung &b) {
        return a.hostNs < b.hostNs;
    });
    return runs[runs.size() / 2];
}

/**
 * Per-device backends on each device's share of every op, one share at
 * a time, checked against the DRAM oracle. `pages` (when given)
 * collects the (device, page) pairs the shares touch.
 */
Rung
deviceRung(const WorkloadSpec &spec, std::uint64_t seed, SpanRecorder *spans,
           SpanIndex parent, LadderResult &out,
           std::vector<std::pair<unsigned, Lpn>> *pages)
{
    Machine m = ladderMachine(spec, seed);
    System &sys = *m.sys;
    OpStream stream = ladderOps(*m.runner, spec);
    Backends b = makeBackends(sys, spec);
    DramSlsBackend dram(sys.eq(), sys.cpu());
    Rung rung;
    for (const SlsOp &op : stream.ops) {
        for (auto &[d, sub] : deviceSubOps(sys, op)) {
            SlsResult expect = runToCompletion(sys, dram, sub);
            SlsBackend &dev = *b.devices.at(d);
            SlsResult got;
            timeOp(sys, rung, spans, parent, "device", sub.totalLookups(),
                   [&]() {
                       dev.run(sub, [&got](SlsResult r) {
                           got = std::move(r);
                       });
                   });
            ++out.oracle.checked;
            if (!bitEqual(got, expect))
                ++out.oracle.mismatches;
            if (!pages)
                continue;
            for (const auto &rows : sub.indices) {
                for (RowId row : rows) {
                    if (pages->size() < maxPageOps) {
                        pages->emplace_back(
                            d, sub.table->baseLpn +
                                   row / sub.table->rowsPerPage);
                    }
                }
            }
        }
    }
    return rung;
}

/** ShardedSlsBackend::run over the device backends, op by op. */
Rung
shardedRung(const WorkloadSpec &spec, std::uint64_t seed, SpanRecorder *spans,
            SpanIndex parent, LadderResult &out)
{
    Machine m = ladderMachine(spec, seed);
    System &sys = *m.sys;
    OpStream stream = ladderOps(*m.runner, spec);
    Backends b = makeBackends(sys, spec);
    DramSlsBackend dram(sys.eq(), sys.cpu());
    Rung rung;
    for (const SlsOp &op : stream.ops) {
        SlsResult expect = runToCompletion(sys, dram, op);
        SlsResult got;
        timeOp(sys, rung, spans, parent, "sharded", op.totalLookups(),
               [&]() {
                   b.sharded->run(op, [&got](SlsResult r) {
                       got = std::move(r);
                   });
               });
        ++out.oracle.checked;
        if (!bitEqual(got, expect))
            ++out.oracle.mismatches;
    }
    return rung;
}

/** Flash reads, FTL reads and FTL writes of single pages. */
void
pageRungs(const WorkloadSpec &spec, std::uint64_t seed,
          const std::vector<std::pair<unsigned, Lpn>> &pages,
          SpanRecorder *spans, SpanIndex parent, Rung &flash_read,
          Rung &ftl_read, Rung &ftl_write)
{
    Machine m = ladderMachine(spec, seed);
    System &sys = *m.sys;
    for (const auto &[d, lpn] : pages) {
        Ppn ppn = sys.ssd(d).ftl().translate(lpn);
        FlashArray &flash = sys.ssd(d).flash();
        timeOp(sys, flash_read, spans, parent, "flash", 0, [&]() {
            flash.readPage(ppn, [](const PageView &) {});
        });
    }
    for (const auto &[d, lpn] : pages) {
        Ftl &ftl = sys.ssd(d).ftl();
        timeOp(sys, ftl_read, spans, parent, "ftl.read", 0, [&]() {
            ftl.hostRead(lpn, [](const PageView &) {});
        });
    }
    const std::vector<std::byte> data(sys.driver().pageSize(),
                                      std::byte{0x3C});
    Rng rng(seed + 99);
    Ftl &ftl = sys.ssd().ftl();
    for (unsigned i = 0; i < writeOps; ++i) {
        Lpn lpn = writeScratchBase + rng.uniformInt(writeScratchPages);
        timeOp(sys, ftl_write, spans, parent, "ftl.write", 0,
               [&]() { ftl.hostWrite(lpn, data, []() {}); });
    }
}

}  // namespace

LadderResult
runLadder(const WorkloadSpec &spec, std::uint64_t seed, SpanRecorder *spans,
          SpanIndex parent)
{
    LadderResult out;
    out.deviceIsNdp = spec.backend == EmbeddingBackendKind::Ndp;

    // Every I/O rung starts from cold caches on its own machine.
    {
        ScopedSpan ladder_span(spans, "ladder.io", parent);
        const SpanIndex at = ladder_span.index();
        std::vector<std::pair<unsigned, Lpn>> pages;
        std::vector<Rung> device;
        std::vector<Rung> sharded;
        std::vector<Rung> flash_read(rungRepeats);
        std::vector<Rung> ftl_read(rungRepeats);
        std::vector<Rung> ftl_write(rungRepeats);
        for (int r = 0; r < rungRepeats; ++r) {
            device.push_back(deviceRung(spec, seed, spans, at, out,
                                        r == 0 ? &pages : nullptr));
            sharded.push_back(shardedRung(spec, seed, spans, at, out));
            pageRungs(spec, seed, pages, spans, at, flash_read[r],
                      ftl_read[r], ftl_write[r]);
        }
        out.device = medianRung(device);
        out.sharded = medianRung(sharded);
        out.flashRead = medianRung(flash_read);
        out.ftlRead = medianRung(ftl_read);
        out.ftlWrite = medianRung(ftl_write);
    }

    // Whole queries through the runner, one at a time, on fresh machines.
    {
        ScopedSpan ladder_span(spans, "ladder.launch", parent);
        QueryShape shape;
        shape.batchSize = spec.batch;
        double depth_sum = 0.0;
        std::uint64_t steps = 0;
        std::vector<Rung> launches;
        for (int r = 0; r < rungRepeats; ++r) {
            Machine m = ladderMachine(spec, seed);
            System &sys = *m.sys;
            Rung rung;
            for (unsigned q = 0; q < ladderQueries; ++q) {
                ScopedSpan span(spans, "launch", ladder_span.index(),
                                rung.ops + 1);
                std::int64_t t0 = hostNowNs();
                m.runner->launchQuery(shape, [](Tick) {});
                while (sys.eq().runOne()) {
                    depth_sum += static_cast<double>(sys.eq().pending());
                    ++steps;
                }
                rung.hostNs += hostNowNs() - t0;
                ++rung.ops;
            }
            launches.push_back(rung);
            if (r == 0) {
                out.opsPerLaunch =
                    opsPerQuery(m.runner->options(), spec.batch,
                                m.runner->ssdTableDescs().size());
            }
        }
        out.launch = medianRung(launches);
        out.pendingDepth = steps ? depth_sum / steps : 1.0;
    }

    {
        ScopedSpan span(spans, "ladder.kernel", parent);
        std::vector<double> passes;
        for (int pass = 0; pass < 3; ++pass) {
            passes.push_back(kernelNsPerEvent(
                static_cast<std::size_t>(out.pendingDepth + 0.5),
                kernelEvents));
        }
        std::sort(passes.begin(), passes.end());
        out.kernelNsPerEvent = passes[1];
    }

    // A tenant mix against a plain runServe of the same model, query
    // count and admitted rate: the difference is the QoS layer's share.
    if (spec.kind == WorkloadKind::Tenants) {
        ScopedSpan span(spans, "ladder.plain_serve", parent);
        Machine m = ladderMachine(spec, seed);
        const TenantServeConfig tcfg = tenantConfig(spec, seed);
        ServeConfig c;
        c.arrivals.process = ArrivalProcess::Poisson;
        c.arrivals.qps = 0.0;
        c.queries = 0;
        c.warmupQueries = 0;
        c.shape.minBatch = ~0u;
        c.shape.maxBatch = 0;
        for (const TenantSpec &t : tcfg.tenants.tenants) {
            c.queries += t.queries;
            c.warmupQueries += tcfg.warmupQueries;
            c.arrivals.qps += t.share.limit > 0.0
                                  ? std::min(t.share.limit, t.arrivals.qps)
                                  : t.arrivals.qps;
            c.shape.minBatch = std::min(c.shape.minBatch, t.shape.minBatch);
            c.shape.maxBatch = std::max(c.shape.maxBatch, t.shape.maxBatch);
        }
        c.batching = tcfg.batching;
        c.seed = seed;
        std::int64_t t0 = hostNowNs();
        runServe(*m.runner, c);
        out.plainServe.hostNs = hostNowNs() - t0;
        out.plainServe.ops = c.queries + c.warmupQueries;
    }
    return out;
}

MetricValues
layerMetrics(const WorkloadSpec &spec, const RepResult &rep,
             const RepResult *obs, const LadderResult &lad,
             std::uint64_t failed)
{
    const std::map<std::string, double> &st = rep.stats;
    const unsigned n = spec.numSsds;
    auto dev = [&](const std::string &suffix) {
        return deviceSum(st, n, suffix);
    };
    auto stat = [&](const std::string &name) {
        auto it = st.find(name);
        return it == st.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den != 0.0 ? num / den : 0.0;
    };
    const double q = static_cast<double>(rep.submitted);
    const double now_us = stat("sim.now_us");

    // Self time per op of each rung: its host time minus the rungs
    // beneath it at the counts it drove them. Each self time includes
    // the kernel cost of the events its own layer schedules; the bare
    // kernel figure is reported beside them, not subtracted.
    const Rung &fr = lad.flashRead;
    const double flash_self = fr.nsPerOp();
    const Rung &rr = lad.ftlRead;
    const double ftl_self = rr.nsPerOp() - rr.perOp(rr.flashPages) * flash_self;
    const Rung &dv = lad.device;
    const double device_self_total =
        static_cast<double>(dv.hostNs) -
        (lad.deviceIsNdp ? dv.flashPages * flash_self
                         : dv.ftlReads * rr.nsPerOp());
    const Rung &sh = lad.sharded;
    const double shard_self =
        sh.perOp(static_cast<double>(sh.hostNs - dv.hostNs));
    const double launch_ns = lad.launch.nsPerOp();
    const double reco_self = launch_ns - lad.opsPerLaunch * sh.nsPerOp();

    MetricValues v;
    v["common.events_per_query"] = ratio(rep.events, q);
    v["common.host_ns_per_event"] = ratio(rep.serveNs, rep.events);
    v["common.kernel_ns_per_event"] = lad.kernelNsPerEvent;

    v["flash.page_reads_per_query"] = ratio(dev("flash.page_reads"), q);
    v["flash.page_writes_per_query"] = ratio(dev("flash.page_writes"), q);
    v["flash.block_erases_per_query"] = ratio(dev("flash.block_erases"), q);
    v["flash.channel_busy_frac"] = rep.flashChannelBusyFrac;
    v["flash.host_ns_per_page"] = flash_self;

    const double pc_hits = dev("ftl.page_cache.hits");
    v["ftl.page_cache_hit_ratio"] =
        ratio(pc_hits, pc_hits + dev("ftl.page_cache.misses"));
    v["ftl.cpu_busy_frac"] = ratio(dev("ftl.cpu.busy_us"), n * now_us);
    v["ftl.gc_runs"] = dev("ftl.gc_runs");
    v["ftl.write_amplification"] =
        ratio(dev("flash.page_writes"), dev("ftl.host_writes"));
    v["ftl.host_ns_per_read"] = ftl_self;
    v["ftl.host_ns_per_write"] = lad.ftlWrite.nsPerOp();

    const double sls_requests = dev("sls.requests");
    const double embed_hits = dev("sls.embed_cache_hits");
    v["ndp.sls_requests_per_query"] = ratio(sls_requests, q);
    v["ndp.embed_cache_hit_ratio"] =
        ratio(embed_hits, embed_hits + dev("sls.flash_pages_read") +
                              dev("sls.page_cache_hits"));
    v["ndp.fence_redirects"] = static_cast<double>(rep.fenceRedirects);
    v["ndp.host_ns_per_lookup"] =
        lad.deviceIsNdp ? ratio(device_self_total, dv.lookups) : 0.0;

    v["nvme.commands_per_query"] = ratio(dev("nvme.commands"), q);
    v["nvme.pcie_bytes_per_query"] = ratio(dev("pcie.bytes_moved"), q);
    v["nvme.pcie_busy_frac"] = ratio(dev("pcie.busy_us"), n * now_us);

    v["host.cpu_busy_frac"] =
        ratio(stat("host.cores.busy_us"), HostParams{}.cores * now_us);
    v["host.queue_depth_high_water"] = rep.queueDepthHighWater;
    v["host.host_ns_per_command"] =
        lad.deviceIsNdp ? 0.0 : ratio(device_self_total, dv.commands);

    v["shard.scattered_ops_per_query"] = ratio(rep.scatteredOps, q);
    v["shard.subop_p95_us"] = rep.subOpP95Us;
    v["shard.host_ns_per_op"] = shard_self;

    v["cache.host_served_frac"] = rep.hostServedFrac;

    v["reco.avg_coalesced_samples"] = rep.avgCoalescedSamples;
    v["reco.queue_us_mean"] = rep.queueUsMean;
    v["reco.service_us_mean"] = rep.serviceUsMean;
    v["reco.host_ns_per_query"] = launch_ns;
    const double serve_per_query =
        spec.kind == WorkloadKind::Tenants ? lad.plainServe.nsPerOp()
                                           : ratio(rep.serveNs, q);
    v["reco.serve_host_ns_per_query"] = serve_per_query - launch_ns;

    v["qos.limit_deferrals"] = static_cast<double>(rep.limitDeferrals);
    v["qos.reservation_grants"] = static_cast<double>(rep.reservationGrants);
    v["qos.update_admission_deferrals"] =
        static_cast<double>(rep.updateAdmissionDeferrals);
    v["qos.host_ns_per_query"] =
        spec.kind == WorkloadKind::Tenants
            ? ratio(rep.serveNs, q) - lad.plainServe.nsPerOp()
            : 0.0;

    const RepResult none;
    const RepResult &o = obs ? *obs : none;
    v["obs.spans_per_query"] = ratio(o.traceSpans, q);
    v["obs.trace_bytes_per_query"] = ratio(o.traceBytes, q);
    v["obs.overhead_ratio"] = obs ? ratio(o.serveNs, rep.serveNs) : 0.0;
    v["obs.blame_host_s"] = o.blameNs * 1e-9;
    v["obs.export_host_s"] = o.exportNs * 1e-9;

    v["sim_updates_per_s"] = rep.simUpdatesPerS;
    v["failed_frac"] = ratio(failed, rep.measured);

    // Share of the serve's host time the bottom-up self times explain
    // at the serve's own operation counts. The rest is the batch
    // scheduler and load generator, plus contention effects that
    // one-op-at-a-time rungs cannot see. A serve's SLS ops are its
    // fused batches times the ops one launch issues.
    double explained = flash_self * dev("flash.page_reads") +
                       shard_self * rep.batches * lad.opsPerLaunch +
                       reco_self * rep.batches;
    if (lad.deviceIsNdp) {
        explained += ratio(device_self_total, dv.slsRequests) * sls_requests;
    } else {
        explained += ftl_self * dev("ftl.host_reads") +
                     ratio(device_self_total, dv.commands) *
                         dev("nvme.commands");
    }
    v["unexplained_frac"] = 1.0 - ratio(explained, rep.serveNs);
    return v;
}

}  // namespace hostbench
