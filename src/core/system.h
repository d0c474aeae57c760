/**
 * @file
 * The RecSSD system facade: one simulated host machine attached to one
 * or more simulated SSDs, with the embedding-table bookkeeping the
 * paper's stack needs. This is the entry point downstream users start
 * from (see examples/quickstart.cpp).
 *
 * Multi-device operation: `SystemConfig::shard` sets the device count
 * and table-partitioning policy. Each device is a fully independent
 * stack — flash array, FTL, SLS engine, NVMe controller, PCIe link,
 * UNVMe driver and queue allocator — sharing only the host CPU and the
 * event queue. With one device (the default) the system is
 * bit-identical to the historical single-SSD layout, including stat
 * names and trace tracks.
 */

#ifndef RECSSD_CORE_SYSTEM_H
#define RECSSD_CORE_SYSTEM_H

#include <iosfwd>
#include <memory>
#include <vector>

#include "src/common/event_queue.h"
#include "src/embedding/embedding_table.h"
#include "src/host/host_cpu.h"
#include "src/host/host_params.h"
#include "src/host/queue_allocator.h"
#include "src/host/unvme_driver.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/obs/utilization.h"
#include "src/shard/shard_router.h"
#include "src/ssd/ssd.h"

namespace recssd
{

struct SystemConfig
{
    SsdConfig ssd;
    HostParams host;
    /** Device fan-out + table partitioning (1 device = seed layout). */
    ShardConfig shard;
    /**
     * Optional per-device overrides: device d uses perSsd[d] instead
     * of `ssd` when the vector is long enough (failure-injection tests
     * perturb one shard this way). Trailing devices fall back to
     * `ssd`.
     */
    std::vector<SsdConfig> perSsd;
};

/**
 * Distribute a `FaultPlan`'s scenarios into per-device
 * `SsdConfig::faults` overrides (populating `perSsd` as needed). Each
 * device's injector gets a seed derived from the plan seed and its
 * index, so injectors on different devices draw independent streams.
 * A plan with no scenarios leaves the config untouched.
 */
void applyFaultPlan(SystemConfig &config, const FaultPlan &plan);

class System
{
  public:
    explicit System(const SystemConfig &config = SystemConfig());

    EventQueue &eq() { return eq_; }

    /** Devices in the system (== shard count). */
    unsigned numSsds() const { return static_cast<unsigned>(ssds_.size()); }

    /** @{ Per-device stacks; no argument = device 0 (seed accessors). */
    Ssd &ssd(unsigned d = 0) { return *ssds_.at(d); }
    UnvmeDriver &driver(unsigned d = 0) { return *drivers_.at(d); }
    QueueAllocator &queues(unsigned d = 0) { return *queueAllocs_.at(d); }
    /** @} */

    HostCpu &cpu() { return *cpu_; }

    /** Table -> device placement and SLS op splitting. */
    ShardRouter &router() { return *router_; }

    const SystemConfig &config() const { return config_; }

    /**
     * Create and bulk-load an embedding table across the shard set.
     * Each owning device's slice gets a consecutive
     * slsTableAlign-aligned logical slot on that device. The returned
     * descriptor is the global (unsharded) view; per-slice descriptors
     * live in `router()`.
     */
    EmbeddingTableDesc installTable(std::uint64_t rows, std::uint32_t dim,
                                    std::uint32_t attr_bytes = 4,
                                    std::uint32_t rows_per_page = 1);

    /**
     * Describe a host-DRAM-resident table (no SSD space consumed);
     * used for the hybrid placements and the DRAM baseline.
     */
    EmbeddingTableDesc describeDramTable(std::uint64_t rows,
                                         std::uint32_t dim,
                                         std::uint32_t attr_bytes = 4);

    /**
     * Drain the event queue. @return final simulated time. A running
     * metric sampler emits its closing sample at drain time so the
     * final partial interval is never dropped.
     */
    Tick run();

    /** @{ Observability. */

    /** The system-wide span tracer (disabled until enableTracing). */
    Tracer &tracer() { return *tracer_; }

    /** Turn request tracing on/off across every component. */
    void enableTracing(bool on = true) { tracer_->setEnabled(on); }

    /** Every component stat under one hierarchical name space. */
    const StatRegistry &stats() const { return registry_; }

    /**
     * Mutable registry access for harnesses that publish run-scoped
     * series (e.g. the serve-mode SLO monitor). Default runs never
     * register anything here, so stats JSON stays byte-identical.
     */
    StatRegistry &statsMut() { return registry_; }

    /**
     * Dump every registered stat as one JSON object with
     * lexicographically sorted keys (diffable run to run). Multi-
     * device systems publish each device's subtree under "ssd<d>.*"
     * plus cross-device aggregates under the historical names.
     */
    void dumpStatsJson(std::ostream &os) const;

    /**
     * Begin sampling the stat registry every `interval` ticks of sim
     * time. Call before run(); rows accumulate until the queue drains.
     * At most one sampler per system.
     */
    MetricSampler &startMetricSampler(Tick interval);

    /** The running sampler, or nullptr if never started. */
    MetricSampler *metricSampler() { return sampler_.get(); }

    /**
     * Begin collecting per-resource utilization and queue-length
     * timelines (bucket width `bucket` ticks of sim time). Call
     * before run(); off by default so untouched runs pay one null
     * check per resource acquire.
     */
    UtilizationCollector &enableUtilization(Tick bucket);

    /** The running collector, or nullptr if never enabled. */
    UtilizationCollector *utilization() { return util_.get(); }
    /** @} */

  private:
    /** Register every component stat into `registry_`. */
    void buildRegistry();

    /**
     * RECSSD_AUDIT: with multiple SSDs, check every aggregate stat
     * equals the sum of its per-device subtree values.
     */
    void auditStatConsistency() const;

    /**
     * Register device d's row of the device counter table, then its
     * per-queue stats, under `prefix`. The column flags register the
     * layout.* / fault.* columns (zero-valued where the device lacks
     * the component), so every device in a fault- or layout-mode run
     * exports the same JSONL columns.
     */
    void registerDevice(unsigned d, const std::string &prefix,
                        bool layout_columns, bool fault_columns);

    SystemConfig config_;
    EventQueue eq_;
    std::unique_ptr<HostCpu> cpu_;
    std::vector<std::unique_ptr<Ssd>> ssds_;
    std::vector<std::unique_ptr<UnvmeDriver>> drivers_;
    std::vector<std::unique_ptr<QueueAllocator>> queueAllocs_;
    std::unique_ptr<ShardRouter> router_;
    std::unique_ptr<Tracer> tracer_;
    StatRegistry registry_;
    bool audit_ = false;  ///< RECSSD_AUDIT cached at construction
    std::unique_ptr<MetricSampler> sampler_;
    std::unique_ptr<UtilizationCollector> util_;
    std::uint32_t nextTableId_ = 0;
    /** Next slsTableAlign slot, per device. */
    std::vector<std::uint64_t> nextTableSlot_;
};

}  // namespace recssd

#endif  // RECSSD_CORE_SYSTEM_H
