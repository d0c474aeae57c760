#include "src/core/system.h"

#include <iomanip>
#include <ostream>
#include <string>

#include "src/common/audit.h"
#include "src/common/logging.h"
#include "src/nvme/nvme_command.h"

namespace recssd
{

namespace
{

/**
 * The cross-device aggregates of a multi-SSD system, in registration
 * (metrics column) order. Each sums one per-device counter that
 * `registerDevice` also exports as "ssd<d>.<group>.<name>";
 * `auditStatConsistency` checks the two agree.
 */
struct Aggregate
{
    const char *group;
    const char *name;
    double (*perDevice)(Ssd &ssd, UnvmeDriver &driver);
};

constexpr Aggregate kAggregates[] = {
    {"flash", "page_reads",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().pageReads()); }},
    {"flash", "page_writes",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().pageWrites()); }},
    {"flash", "block_erases",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().blockErases()); }},
    {"flash", "read_retries",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().readRetries()); }},
    {"ftl", "host_reads",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().hostReads()); }},
    {"ftl", "host_writes",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().hostWrites()); }},
    {"sls", "requests",
     [](Ssd &s, UnvmeDriver &) { return double(s.slsEngine().requests()); }},
    {"sls", "flash_pages_read",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.slsEngine().flashPagesRead());
     }},
    {"nvme", "commands",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.controller().commandsProcessed());
     }},
    {"pcie", "bytes_moved",
     [](Ssd &s, UnvmeDriver &) { return double(s.pcie().bytesMoved()); }},
    {"driver", "commands",
     [](Ssd &, UnvmeDriver &drv) { return double(drv.commandsIssued()); }},
};

}  // namespace

System::System(const SystemConfig &config) : config_(config)
{
    recssd_assert(config_.shard.numShards > 0, "need at least one device");
    unsigned n = config_.shard.numShards;

    cpu_ = std::make_unique<HostCpu>(eq_, config_.host);
    for (unsigned d = 0; d < n; ++d) {
        const SsdConfig &sc =
            d < config_.perSsd.size() ? config_.perSsd[d] : config_.ssd;
        // Single-device systems keep the historical unprefixed track
        // names so traces and stats stay bit-identical to the seed.
        std::string prefix = n > 1 ? "ssd" + std::to_string(d) + "." : "";
        ssds_.push_back(std::make_unique<Ssd>(eq_, sc, prefix));
        drivers_.push_back(std::make_unique<UnvmeDriver>(
            eq_, *cpu_, ssds_[d]->controller(), prefix));
        queueAllocs_.push_back(std::make_unique<QueueAllocator>(
            drivers_[d]->numQueues(), config_.host.balancedQueueGrants
                                          ? QueueAllocator::Policy::LeastUsed
                                          : QueueAllocator::Policy::Fifo));
    }
    nextTableSlot_.assign(n, 0);
    router_ = std::make_unique<ShardRouter>(config_.shard);
    // Off by default: an unhooked tracer keeps every instrumentation
    // point a single null check, so timing is bit-identical to an
    // uninstrumented build.
    tracer_ = std::make_unique<Tracer>(eq_);
    audit_ = auditEnabled();
    buildRegistry();
}

Tick
System::run()
{
    Tick end = eq_.run();
    // Close the sampled series at drain time: the final partial
    // interval would otherwise be dropped, and a run shorter than one
    // interval would export only the t=0 snapshot.
    if (sampler_)
        sampler_->finish();
    return end;
}

UtilizationCollector &
System::enableUtilization(Tick bucket)
{
    recssd_assert(!util_, "utilization collector already enabled");
    util_ = std::make_unique<UtilizationCollector>(eq_, bucket);
    util_->setEnabled(true);
    return *util_;
}

void
System::registerDevice(unsigned d, const std::string &prefix,
                       bool force_layout, bool force_fault)
{
    auto u64 = [](auto get) {
        return [get]() { return static_cast<double>(get()); };
    };
    StatRegistry &r = registry_;
    Ssd *ssd = ssds_[d].get();
    UnvmeDriver *drv = drivers_[d].get();
    QueueAllocator *qa = queueAllocs_[d].get();

    r.addScalar(prefix + "flash", "page_reads",
                u64([ssd]() { return ssd->flash().pageReads(); }));
    r.addScalar(prefix + "flash", "page_writes",
                u64([ssd]() { return ssd->flash().pageWrites(); }));
    r.addScalar(prefix + "flash", "block_erases",
                u64([ssd]() { return ssd->flash().blockErases(); }));
    r.addScalar(prefix + "flash", "read_retries",
                u64([ssd]() { return ssd->flash().readRetries(); }));

    r.addScalar(prefix + "ftl", "host_reads",
                u64([ssd]() { return ssd->ftl().hostReads(); }));
    r.addScalar(prefix + "ftl", "host_writes",
                u64([ssd]() { return ssd->ftl().hostWrites(); }));
    r.addScalar(prefix + "ftl", "host_trims",
                u64([ssd]() { return ssd->ftl().hostTrims(); }));
    r.addScalar(prefix + "ftl", "gc_runs",
                u64([ssd]() { return ssd->ftl().gcRuns(); }));
    r.addScalar(prefix + "ftl", "gc_pages_migrated",
                u64([ssd]() { return ssd->ftl().gcPagesMigrated(); }));
    r.addScalar(prefix + "ftl.page_cache", "hits",
                u64([ssd]() { return ssd->ftl().pageCache().hits(); }));
    r.addScalar(prefix + "ftl.page_cache", "misses",
                u64([ssd]() { return ssd->ftl().pageCache().misses(); }));
    r.addScalar(prefix + "ftl.cpu", "busy_us", [ssd]() {
        return ticksToUs(ssd->ftl().cpu().busyTime());
    });

    r.addScalar(prefix + "sls", "requests",
                u64([ssd]() { return ssd->slsEngine().requests(); }));
    r.addScalar(prefix + "sls", "flash_pages_read",
                u64([ssd]() { return ssd->slsEngine().flashPagesRead(); }));
    r.addScalar(prefix + "sls", "page_cache_hits",
                u64([ssd]() { return ssd->slsEngine().pageCacheHits(); }));
    r.addScalar(prefix + "sls", "embed_cache_hits",
                u64([ssd]() { return ssd->slsEngine().embedCacheHits(); }));

    // Layout counters exist only when the frequency-aware policy is
    // active, so log-policy configs export byte-identical stats JSON
    // (same pattern as the fault counters below). In a mixed system
    // where *any* device runs the policy, devices without it register
    // zero-valued columns so every device exports the same JSONL
    // schema and rows stay aligned.
    const LayoutManager *lay = ssd->ftl().layout();
    if (lay || force_layout) {
        auto layU64 = [lay, u64](auto get) -> StatRegistry::Getter {
            if (!lay)
                return []() { return 0.0; };
            return u64(get);
        };
        r.addScalar(prefix + "layout", "promotions",
                    layU64([lay]() { return lay->promotions(); }));
        r.addScalar(prefix + "layout", "demotions",
                    layU64([lay]() { return lay->demotions(); }));
        r.addScalar(prefix + "layout", "migrated_pages",
                    layU64([lay]() { return lay->migratedPages(); }));
        r.addScalar(prefix + "layout", "read_pins",
                    layU64([lay]() { return lay->readPins(); }));
        r.addScalar(prefix + "layout", "hot_pages_allocated",
                    layU64([ssd]() {
                        return ssd->ftl().blocks().hotPagesAllocated();
                    }));
        r.addScalar(prefix + "layout.hot_tier", "hits",
                    layU64([lay]() { return lay->tier().hits(); }));
        r.addScalar(prefix + "layout.hot_tier", "misses",
                    layU64([lay]() { return lay->tier().misses(); }));
        r.addScalar(prefix + "layout.hot_tier", "resident",
                    layU64([lay]() { return lay->tier().resident(); }));
        r.addScalar(prefix + "sls", "hot_tier_hits", layU64([ssd]() {
            return ssd->slsEngine().hotTierHits();
        }));
    }

    r.addScalar(prefix + "nvme", "commands",
                u64([ssd]() { return ssd->controller().commandsProcessed(); }));
    r.addScalar(prefix + "pcie", "bytes_moved",
                u64([ssd]() { return ssd->pcie().bytesMoved(); }));
    r.addScalar(prefix + "pcie", "busy_us",
                [ssd]() { return ticksToUs(ssd->pcie().busyTime()); });

    r.addScalar(prefix + "driver", "commands",
                u64([drv]() { return drv->commandsIssued(); }));

    // Fault counters exist only on devices with an armed injector, so
    // fault-free configs export byte-identical stats JSON. Fault-mode
    // runs register the columns on *every* device (zero-valued where
    // no injector is armed): a plan targeting only ssd1 used to leave
    // ssd0.fault.* missing from JSONL output entirely.
    const FaultInjector *fi = ssd->faultInjector();
    if (fi || force_fault) {
        auto fiU64 = [fi, u64](auto get) -> StatRegistry::Getter {
            if (!fi)
                return []() { return 0.0; };
            return u64(get);
        };
        r.addScalar(prefix + "fault", "die_stalls",
                    fiU64([fi]() { return fi->dieStalls(); }));
        r.addScalar(prefix + "fault", "fw_pauses",
                    fiU64([fi]() { return fi->firmwarePauses(); }));
        r.addScalar(prefix + "fault", "inflation_windows",
                    fiU64([fi]() { return fi->inflationWindows(); }));
        r.addScalar(prefix + "fault", "dropouts",
                    fiU64([fi]() { return fi->dropouts(); }));
        r.addScalar(prefix + "fault", "inflated_reads",
                    u64([ssd]() { return ssd->flash().inflatedReads(); }));
        r.addScalar(prefix + "fault", "dropped_commands", u64([ssd]() {
            return ssd->controller().droppedCommands();
        }));
    }

    for (unsigned q = 0; q < drv->numQueues(); ++q) {
        std::string group = prefix + "driver.queue" + std::to_string(q);
        r.addScalar(group, "commands",
                    u64([drv, q]() { return drv->commandsOnQueue(q); }));
        r.addGauge(group, "depth", &drv->queuePair(q).depthGauge());
        r.addScalar(group, "grants",
                    u64([qa, q]() { return qa->grantsOn(q); }));
    }
}

void
System::buildRegistry()
{
    StatRegistry &r = registry_;
    HostCpu *cpu = cpu_.get();
    EventQueue *eq = &eq_;

    r.addScalar("sim", "now_us",
                [eq]() { return ticksToUs(eq->now()); });

    // Schema-consistency flags: if any device carries the layout
    // policy or an armed fault injector, every device registers those
    // column groups (zero-valued where absent). Single-device systems
    // degenerate to the device's own state, so seed output is
    // untouched.
    bool any_layout = false;
    bool any_fault = false;
    for (unsigned d = 0; d < numSsds(); ++d) {
        any_layout = any_layout || ssds_[d]->ftl().layout() != nullptr;
        any_fault = any_fault || ssds_[d]->faultInjector() != nullptr;
    }

    if (numSsds() == 1) {
        // Seed layout: device 0's stats under the historical names.
        registerDevice(0, "", any_layout, any_fault);
    } else {
        // Per-device subtrees plus cross-device aggregates under the
        // historical names, so existing dashboards keep working and
        // the property tests can check per-shard totals sum up.
        for (unsigned d = 0; d < numSsds(); ++d)
            registerDevice(d, "ssd" + std::to_string(d) + ".", any_layout,
                           any_fault);

        for (const Aggregate &a : kAggregates) {
            r.addScalar(a.group, a.name, [this, get = a.perDevice]() {
                double total = 0.0;
                for (unsigned d = 0; d < numSsds(); ++d)
                    total += get(*ssds_[d], *drivers_[d]);
                return total;
            });
        }
    }

    r.addScalar("host.cores", "busy_us",
                [cpu]() { return ticksToUs(cpu->busyTime()); });
}

void
System::auditStatConsistency() const
{
    // The aggregate scalars registered for multi-SSD systems must
    // equal the sum over the per-device "ssd<d>." subtrees.  Stats are
    // integral counters surfaced as doubles, so exact compare is safe.
    for (const Aggregate &a : kAggregates) {
        const std::string name = std::string(a.group) + "." + a.name;
        double total = registry_.valueOf(name);
        double summed = 0.0;
        for (unsigned d = 0; d < numSsds(); ++d)
            summed += registry_.valueOf("ssd" + std::to_string(d) + "." +
                                        name);
        recssd_assert(total == summed,
                      "audit: aggregate %s = %.0f but per-device "
                      "subtrees sum to %.0f",
                      name.c_str(), total, summed);
    }
}

void
System::dumpStatsJson(std::ostream &os) const
{
    if (audit_ && numSsds() > 1)
        auditStatConsistency();
    registry_.writeJson(os);
}

MetricSampler &
System::startMetricSampler(Tick interval)
{
    recssd_assert(!sampler_, "metric sampler already started");
    sampler_ = std::make_unique<MetricSampler>(eq_, registry_, interval);
    sampler_->start();
    return *sampler_;
}

EmbeddingTableDesc
System::installTable(std::uint64_t rows, std::uint32_t dim,
                     std::uint32_t attr_bytes, std::uint32_t rows_per_page)
{
    EmbeddingTableDesc global;
    global.id = nextTableId_++;
    global.rows = rows;
    global.dim = dim;
    global.attrBytes = attr_bytes;
    global.rowsPerPage = rows_per_page;
    const ShardedTable &st =
        router_->addTable(global, [this](unsigned shard) {
            return nextTableSlot_.at(shard)++ * slsTableAlign;
        });
    for (const ShardSlice &slice : st.slices) {
        recssd::installTable(ssds_[slice.shard]->ftl(), slice.desc);
        // Replica copies: same rows + rowBase, so the synthetic
        // content is bit-identical to the primary's.
        for (const ReplicaSlice &rep : slice.replicas)
            recssd::installTable(ssds_[rep.shard]->ftl(), rep.desc);
    }
    return st.global;
}

void
System::dumpStats(std::ostream &os)
{
    Tick now = eq_.now();
    auto line = [&os](const std::string &name, std::uint64_t v) {
        os << "  " << std::left << std::setw(36) << name << v << "\n";
    };
    auto util = [&os, now](const std::string &name, double v) {
        os << "  " << std::left << std::setw(36) << name << v << "\n";
    };
    auto pct = [now](Tick busy) {
        return 100.0 * static_cast<double>(busy) / static_cast<double>(now);
    };

    auto device = [&](unsigned d, const std::string &p) {
        Ssd *ssd = ssds_[d].get();
        UnvmeDriver *drv = drivers_[d].get();
        QueueAllocator *qa = queueAllocs_[d].get();
        line(p + "flash.pageReads", ssd->flash().pageReads());
        line(p + "flash.pageWrites", ssd->flash().pageWrites());
        line(p + "flash.blockErases", ssd->flash().blockErases());
        line(p + "ftl.hostReads", ssd->ftl().hostReads());
        line(p + "ftl.hostWrites", ssd->ftl().hostWrites());
        line(p + "ftl.hostTrims", ssd->ftl().hostTrims());
        line(p + "ftl.gcRuns", ssd->ftl().gcRuns());
        line(p + "ftl.gcPagesMigrated", ssd->ftl().gcPagesMigrated());
        line(p + "ftl.pageCache.hits", ssd->ftl().pageCache().hits());
        line(p + "ftl.pageCache.misses", ssd->ftl().pageCache().misses());
        line(p + "sls.requests", ssd->slsEngine().requests());
        line(p + "sls.flashPagesRead", ssd->slsEngine().flashPagesRead());
        line(p + "sls.pageCacheHits", ssd->slsEngine().pageCacheHits());
        line(p + "sls.embedCacheHits", ssd->slsEngine().embedCacheHits());
        if (const LayoutManager *lay = ssd->ftl().layout()) {
            line(p + "layout.promotions", lay->promotions());
            line(p + "layout.demotions", lay->demotions());
            line(p + "layout.migratedPages", lay->migratedPages());
            line(p + "layout.readPins", lay->readPins());
            line(p + "layout.hotPagesAllocated",
                 ssd->ftl().blocks().hotPagesAllocated());
            line(p + "layout.hotTier.hits", lay->tier().hits());
            line(p + "layout.hotTier.misses", lay->tier().misses());
            line(p + "layout.hotTier.resident", lay->tier().resident());
            line(p + "sls.hotTierHits", ssd->slsEngine().hotTierHits());
        }
        line(p + "nvme.commands", ssd->controller().commandsProcessed());
        line(p + "pcie.bytesMoved", ssd->pcie().bytesMoved());
        line(p + "driver.commands", drv->commandsIssued());
        if (const FaultInjector *fi = ssd->faultInjector()) {
            line(p + "fault.dieStalls", fi->dieStalls());
            line(p + "fault.fwPauses", fi->firmwarePauses());
            line(p + "fault.inflationWindows", fi->inflationWindows());
            line(p + "fault.dropouts", fi->dropouts());
            line(p + "fault.inflatedReads", ssd->flash().inflatedReads());
            line(p + "fault.droppedCommands",
                 ssd->controller().droppedCommands());
        }
        for (unsigned q = 0; q < drv->numQueues(); ++q) {
            std::string prefix = p + "driver.queue" + std::to_string(q);
            line(prefix + ".commands", drv->commandsOnQueue(q));
            line(prefix + ".maxDepth", drv->queuePair(q).maxOutstanding());
            line(prefix + ".grants", qa->grantsOn(q));
        }
    };

    os << "==== system stats @ " << ticksToMs(now) << "ms ====\n";
    if (numSsds() == 1) {
        device(0, "");
        if (now > 0) {
            util("ftl.cpu.util%", pct(ssds_[0]->ftl().cpu().busyTime()));
            util("pcie.util%", pct(ssds_[0]->pcie().busyTime()));
            util("host.cores.util%", pct(cpu_->busyTime()) / cpu_->cores());
        }
        return;
    }

    for (unsigned d = 0; d < numSsds(); ++d) {
        std::string p = "ssd" + std::to_string(d) + ".";
        device(d, p);
        if (now > 0) {
            util(p + "ftl.cpu.util%", pct(ssds_[d]->ftl().cpu().busyTime()));
            util(p + "pcie.util%", pct(ssds_[d]->pcie().busyTime()));
        }
    }
    if (now > 0)
        util("host.cores.util%", pct(cpu_->busyTime()) / cpu_->cores());
}

void
applyFaultPlan(SystemConfig &config, const FaultPlan &plan)
{
    if (plan.scenarios.empty())
        return;
    recssd_assert(plan.maxDevice() < config.shard.numShards,
                  "fault plan targets device %u but the system has %u",
                  plan.maxDevice(), config.shard.numShards);
    if (config.perSsd.size() < config.shard.numShards)
        config.perSsd.resize(config.shard.numShards, config.ssd);
    for (unsigned d = 0; d < config.shard.numShards; ++d) {
        config.perSsd[d].faults.scenarios = plan.forDevice(d);
        config.perSsd[d].faults.seed = plan.seed + d;
    }
}

EmbeddingTableDesc
System::describeDramTable(std::uint64_t rows, std::uint32_t dim,
                          std::uint32_t attr_bytes)
{
    EmbeddingTableDesc desc;
    desc.id = nextTableId_++;
    // DRAM tables burn a device-0 slot so the seed's installTable /
    // describeDramTable interleaving produces identical baseLpns.
    desc.baseLpn = nextTableSlot_.at(0)++ * slsTableAlign;
    desc.rows = rows;
    desc.dim = dim;
    desc.attrBytes = attr_bytes;
    desc.rowsPerPage = 1;
    return desc;
}

}  // namespace recssd
