#include "src/core/system.h"

#include <cstdint>
#include <ostream>
#include <string>

#include "src/common/audit.h"
#include "src/common/logging.h"
#include "src/nvme/nvme_command.h"

namespace recssd
{

namespace
{

/** When a device counter's column exists, and what it reads. */
enum class Scope : std::uint8_t
{
    Device,     ///< every device
    Summed,     ///< every device, plus a cross-device sum (multi-SSD)
    Layout,     ///< freq-layout systems; 0 without a layout manager
    Injector,   ///< fault-mode systems; 0 without a fault injector
    FaultMode,  ///< fault-mode systems; the device counter everywhere
};

/**
 * One per-device counter, exported as "<group>.<name>" (single SSD) or
 * "ssd<d>.<group>.<name>". Layout and fault columns exist only when
 * some device runs the freq policy or an armed injector, so other
 * configs export byte-identical stats; then every device registers
 * them, so each exports the same metrics columns.
 */
struct DeviceCounter
{
    Scope scope;
    const char *group;
    const char *name;
    double (*get)(Ssd &ssd, UnvmeDriver &driver);
};

/** Every device counter, in registration (metrics column) order. */
constexpr DeviceCounter kDeviceCounters[] = {
    {Scope::Summed, "flash", "page_reads",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().pageReads()); }},
    {Scope::Summed, "flash", "page_writes",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().pageWrites()); }},
    {Scope::Summed, "flash", "block_erases",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().blockErases()); }},
    {Scope::Summed, "flash", "read_retries",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().readRetries()); }},
    {Scope::Summed, "ftl", "host_reads",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().hostReads()); }},
    {Scope::Summed, "ftl", "host_writes",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().hostWrites()); }},
    {Scope::Device, "ftl", "host_trims",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().hostTrims()); }},
    {Scope::Device, "ftl", "gc_runs",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().gcRuns()); }},
    {Scope::Device, "ftl", "gc_pages_migrated",
     [](Ssd &s, UnvmeDriver &) { return double(s.ftl().gcPagesMigrated()); }},
    {Scope::Device, "ftl.page_cache", "hits",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().pageCache().hits());
     }},
    {Scope::Device, "ftl.page_cache", "misses",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().pageCache().misses());
     }},
    {Scope::Device, "ftl.cpu", "busy_us",
     [](Ssd &s, UnvmeDriver &) {
         return ticksToUs(s.ftl().cpu().busyTime());
     }},
    {Scope::Summed, "sls", "requests",
     [](Ssd &s, UnvmeDriver &) { return double(s.slsEngine().requests()); }},
    {Scope::Summed, "sls", "flash_pages_read",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.slsEngine().flashPagesRead());
     }},
    {Scope::Device, "sls", "page_cache_hits",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.slsEngine().pageCacheHits());
     }},
    {Scope::Device, "sls", "embed_cache_hits",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.slsEngine().embedCacheHits());
     }},
    {Scope::Layout, "layout", "promotions",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->promotions());
     }},
    {Scope::Layout, "layout", "demotions",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->demotions());
     }},
    {Scope::Layout, "layout", "migrated_pages",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->migratedPages());
     }},
    {Scope::Layout, "layout", "read_pins",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->readPins());
     }},
    {Scope::Layout, "layout", "hot_pages_allocated",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().blocks().hotPagesAllocated());
     }},
    {Scope::Layout, "layout.hot_tier", "hits",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->tier().hits());
     }},
    {Scope::Layout, "layout.hot_tier", "misses",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->tier().misses());
     }},
    {Scope::Layout, "layout.hot_tier", "resident",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.ftl().layout()->tier().resident());
     }},
    {Scope::Layout, "sls", "hot_tier_hits",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.slsEngine().hotTierHits());
     }},
    {Scope::Summed, "nvme", "commands",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.controller().commandsProcessed());
     }},
    {Scope::Summed, "pcie", "bytes_moved",
     [](Ssd &s, UnvmeDriver &) { return double(s.pcie().bytesMoved()); }},
    {Scope::Device, "pcie", "busy_us",
     [](Ssd &s, UnvmeDriver &) { return ticksToUs(s.pcie().busyTime()); }},
    {Scope::Summed, "driver", "commands",
     [](Ssd &, UnvmeDriver &drv) { return double(drv.commandsIssued()); }},
    {Scope::Injector, "fault", "die_stalls",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.faultInjector()->dieStalls());
     }},
    {Scope::Injector, "fault", "fw_pauses",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.faultInjector()->firmwarePauses());
     }},
    {Scope::Injector, "fault", "inflation_windows",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.faultInjector()->inflationWindows());
     }},
    {Scope::Injector, "fault", "dropouts",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.faultInjector()->dropouts());
     }},
    {Scope::FaultMode, "fault", "inflated_reads",
     [](Ssd &s, UnvmeDriver &) { return double(s.flash().inflatedReads()); }},
    {Scope::FaultMode, "fault", "dropped_commands",
     [](Ssd &s, UnvmeDriver &) {
         return double(s.controller().droppedCommands());
     }},
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
                       bool layout_columns, bool fault_columns)
{
    StatRegistry &r = registry_;
    Ssd *ssd = ssds_[d].get();
    UnvmeDriver *drv = drivers_[d].get();
    QueueAllocator *qa = queueAllocs_[d].get();

    for (const DeviceCounter &c : kDeviceCounters) {
        bool layout = c.scope == Scope::Layout;
        bool fault = c.scope == Scope::Injector || c.scope == Scope::FaultMode;
        if ((layout && !layout_columns) || (fault && !fault_columns))
            continue;
        bool absent = (layout && !ssd->ftl().layout()) ||
                      (c.scope == Scope::Injector && !ssd->faultInjector());
        if (absent)
            r.addScalar(prefix + c.group, c.name, []() { return 0.0; });
        else
            r.addScalar(prefix + c.group, c.name,
                        [get = c.get, ssd, drv]() { return get(*ssd, *drv); });
    }

    for (unsigned q = 0; q < drv->numQueues(); ++q) {
        std::string group = prefix + "driver.queue" + std::to_string(q);
        r.addScalar(group, "commands", [drv, q]() {
            return static_cast<double>(drv->commandsOnQueue(q));
        });
        r.addGauge(group, "depth", &drv->queuePair(q).depthGauge());
        r.addScalar(group, "grants", [qa, q]() {
            return static_cast<double>(qa->grantsOn(q));
        });
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

        for (const DeviceCounter &c : kDeviceCounters) {
            if (c.scope != Scope::Summed)
                continue;
            r.addScalar(c.group, c.name, [this, get = c.get]() {
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
    for (const DeviceCounter &c : kDeviceCounters) {
        if (c.scope != Scope::Summed)
            continue;
        const std::string name = std::string(c.group) + "." + c.name;
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
