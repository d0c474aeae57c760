/**
 * @file
 * End-to-end recommendation inference on the simulated machine.
 *
 * A `ModelRunner` instantiates one model from the zoo on a `System`:
 * it places each table group in host DRAM or on the SSD (the hybrid
 * DRAM-SSD deployment of §1/§3.3), builds the requested embedding
 * backend (DRAM / baseline SSD / RecSSD NDP) with its caches, drives
 * synthetic input traces, and executes batched inferences with the
 * §4.2 SLS-worker/NN-worker pipelining across sub-batches. Latencies
 * are simulated; embedding math (and optionally the MLPs) is real.
 */

#ifndef RECSSD_RECO_MODEL_RUNNER_H
#define RECSSD_RECO_MODEL_RUNNER_H

#include <memory>
#include <vector>

#include "src/cache/host_embedding_cache.h"
#include "src/cache/static_partition.h"
#include "src/core/system.h"
#include "src/embedding/baseline_backend.h"
#include "src/embedding/dram_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/load/load_gen.h"
#include "src/reco/mlp.h"
#include "src/reco/model_config.h"
#include "src/resil/resil_config.h"
#include "src/shard/sharded_backend.h"
#include "src/trace/trace_gen.h"

namespace recssd
{

enum class EmbeddingBackendKind
{
    Dram,         ///< all tables in host DRAM (the DRAM baseline)
    BaselineSsd,  ///< conventional NVMe reads + host accumulate
    Ndp,          ///< RecSSD offload
};

struct RunnerOptions
{
    EmbeddingBackendKind backend = EmbeddingBackendKind::Dram;

    /** Baseline: enable the fully associative host LRU cache. */
    bool hostLruCache = false;
    std::size_t hostCacheEntries = 2048;

    /** NDP: enable profile-driven static host partitioning. */
    bool staticPartition = false;
    std::size_t partitionEntries = 2048;
    unsigned profileBatches = 32;

    /** Hybrid placement: tables with more rows go to the SSD. */
    std::uint64_t dramResidentMaxRows = 512 * 1024;
    bool forceAllTablesOnSsd = false;

    /** Pipelining (§4.2): sub-batches whose SLS and MLP overlap. */
    unsigned subBatches = 4;
    bool pipeline = true;

    /** Actually compute the dense layers (tests/examples). */
    bool functionalMlp = false;

    /** Tail tolerance (src/resil): deadlines + hedged sub-ops, applied
     *  by the scatter-gather wrapper. All off by default. */
    ResilConfig resil;

    /** Input trace template (universe is overridden per table). */
    TraceSpec trace;

    std::uint64_t seed = 42;
};

/** Aggregated results of a measurement run. */
struct RunStats
{
    double avgLatencyUs = 0.0;
    double minLatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    unsigned batches = 0;

    double hostCacheHitRate = 0.0;
    double partitionHitRate = 0.0;
    double ssdEmbedCacheHitRate = 0.0;
    /** In-SSD page-cache hit rate over the measured window (delta of
     *  hits/misses, so warmup traffic is excluded). */
    double ssdPageCacheHitRate = 0.0;
    /** Hot-row DRAM tier hit rate over the measured window; 0 unless
     *  the frequency-aware layout policy is active. Disjoint from the
     *  page-cache rate: a hot-tier hit never probes the page cache. */
    double hotTierHitRate = 0.0;
    std::uint64_t flashPageReads = 0;
};

class ModelRunner
{
  public:
    ModelRunner(System &sys, const ModelConfig &model,
                const RunnerOptions &options);
    /** Unregisters the death hooks, which hold `this`. */
    ~ModelRunner();

    ModelRunner(const ModelRunner &) = delete;
    ModelRunner &operator=(const ModelRunner &) = delete;

    /** Execute one batch to completion. @return simulated latency. */
    Tick runBatch(unsigned batch_size);

    /**
     * Launch a batch without draining the event queue; `done`
     * receives the batch latency when it completes. Lets callers
     * overlap multiple in-flight queries (open-loop serving).
     */
    void launchBatch(unsigned batch_size, std::function<void(Tick)> done);

    /**
     * Launch one query with an explicit shape: `shape.batchSize`
     * samples touching the first `shape.tablesTouched` tables with
     * per-table lookups scaled by `shape.poolingScale`. The default
     * shape reproduces launchBatch exactly; untouched tables
     * contribute zero vectors (and no backend traffic beyond the
     * operator dispatch), so the result layout never changes.
     */
    void launchQuery(const QueryShape &shape, std::function<void(Tick)> done);

    /**
     * launchQuery with the degraded flag: `done(latency, degraded)`,
     * where `degraded` is true when any SLS op in the batch was
     * answered from a deadline expiry or a dead-end degraded fill
     * (a sub-op whose every candidate device is dead or ejected).
     */
    void launchQueryEx(const QueryShape &shape,
                       std::function<void(Tick, bool)> done);

    /** Warm up, then measure the average over `batches` batches. */
    RunStats measure(unsigned batch_size, unsigned warmup_batches,
                     unsigned batches);

    /** Scores of the most recent batch (functionalMlp only). */
    const Matrix &lastScores() const { return lastScores_; }

    const ModelConfig &model() const { return model_; }
    const RunnerOptions &options() const { return options_; }
    System &sys() { return sys_; }

    /** Tables placed on the SSD under the current options. */
    unsigned ssdTables() const;

    /** Global descriptors of the SSD-resident tables, in model order —
     *  the online-update stream's write targets. */
    std::vector<EmbeddingTableDesc> ssdTableDescs() const;

    HostEmbeddingCache *hostCache() { return hostCache_.get(); }
    StaticPartition *partition() { return partition_.get(); }

    /**
     * The scatter-gather wrapper every SSD-resident table runs
     * through, carrying `RunnerOptions::resil`; null for the pure-DRAM
     * backend. At one device a sub-op is delivered as the device
     * answered it, so per-shard stats still work (all on shard 0).
     */
    ShardedSlsBackend *shardedBackend() { return shardedBackend_.get(); }

  private:
    struct TableRt
    {
        EmbeddingTableDesc desc;
        bool onSsd;
        unsigned lookups;  ///< indices per sample for this table
        std::unique_ptr<TraceGenerator> gen;
    };

    /** Profile traces and freeze the static partition. */
    void buildPartition();

    /** Launch one sub-batch; joins into the shared completion count. */
    void launchSubBatch(unsigned size, unsigned first_sample,
                        const std::shared_ptr<struct BatchState> &batch);

    /** Lookups per sample for one table under a pooling scale. */
    unsigned scaledLookups(const TableRt &table, double scale) const;

    System &sys_;
    ModelConfig model_;
    RunnerOptions options_;

    std::vector<TableRt> tables_;
    std::unique_ptr<HostEmbeddingCache> hostCache_;
    std::unique_ptr<StaticPartition> partition_;
    std::unique_ptr<DramSlsBackend> dramBackend_;
    /** One SSD backend per device, bound to that device's driver. */
    std::vector<std::unique_ptr<BaselineSsdSlsBackend>> baselineBackends_;
    std::vector<std::unique_ptr<NdpSlsBackend>> ndpBackends_;
    std::unique_ptr<ShardedSlsBackend> shardedBackend_;
    /** Per device: the controller death hook that tells
     *  `shardedBackend_` (empty without one). */
    std::vector<std::size_t> deathHooks_;

    std::unique_ptr<Mlp> bottomMlp_;
    std::unique_ptr<Mlp> topMlp_;

    Rng denseRng_;
    Matrix lastScores_;
};

}  // namespace recssd

#endif  // RECSSD_RECO_MODEL_RUNNER_H
