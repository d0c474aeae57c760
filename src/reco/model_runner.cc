#include "src/reco/model_runner.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/embedding/synthetic_values.h"
#include "src/obs/tracer.h"

namespace recssd
{

namespace
{

/** Split `total` CPU work evenly across the host cores; `done` fires
 *  when every share completes (models a parallel GEMM). */
void
runParallel(HostCpu &cpu, Tick total, EventQueue::Callback done)
{
    struct Join
    {
        unsigned remaining;
        EventQueue::Callback done;
    };
    unsigned shares = cpu.cores();
    auto join = std::make_shared<Join>(Join{shares, std::move(done)});
    Tick each = total / shares + 1;
    for (unsigned s = 0; s < shares; ++s) {
        cpu.run(each, [join]() {
            if (--join->remaining == 0)
                join->done();
        });
    }
}

}  // namespace

/** In-flight state of one inference batch. */
struct BatchState
{
    Tick start = 0;
    /** Trace request id (0 when tracing is off). */
    std::uint64_t traceId = 0;
    SpanId rootSpan = invalidSpan;
    unsigned subBatchesLeft = 0;
    bool done = false;
    Tick latency = 0;
    /** Shape of the query this batch executes. */
    unsigned tablesTouched = ~0u;
    double poolingScale = 1.0;
    /** Per-sub-batch functional pieces (kept for functionalMlp). */
    Matrix scores;
    unsigned batchSize = 0;
    unsigned scoresFilled = 0;
    /** Any SLS op answered degraded (deadline / dead-end fill). */
    bool degraded = false;
    /** Completion hook for launchQueryEx callers. */
    std::function<void(Tick, bool)> onDone;
};

/** In-flight state of one sub-batch. */
struct SubBatchState
{
    unsigned size = 0;
    unsigned firstSample = 0;
    unsigned joinsLeft = 0;  ///< tables + bottom MLP
    Matrix dense;
    Matrix bottomOut;
    std::vector<SlsResult> pooled;  ///< per table
};

ModelRunner::ModelRunner(System &sys, const ModelConfig &model,
                         const RunnerOptions &options)
    : sys_(sys), model_(model), options_(options),
      denseRng_(options.seed ^ 0xDEADBEEF)
{
    // Instantiate tables with hybrid placement. Same-sized tables draw
    // from one shared Zipf table.
    ZipfSamplerPool zipfs;
    for (const auto &group : model_.tables) {
        for (unsigned i = 0; i < group.count; ++i) {
            TableRt rt;
            bool on_ssd = options_.backend != EmbeddingBackendKind::Dram &&
                          (options_.forceAllTablesOnSsd ||
                           group.rows > options_.dramResidentMaxRows);
            if (on_ssd) {
                rt.desc = sys_.installTable(group.rows, group.dim,
                                            group.attrBytes,
                                            group.rowsPerPage);
            } else {
                rt.desc = sys_.describeDramTable(group.rows, group.dim,
                                                 group.attrBytes);
            }
            rt.onSsd = on_ssd;
            rt.lookups = group.lookups;
            TraceSpec spec = options_.trace;
            spec.universe = group.rows;
            spec.seed = options_.seed * 7919 + rt.desc.id * 104729 + 1;
            rt.gen = std::make_unique<TraceGenerator>(spec, &zipfs);
            tables_.push_back(std::move(rt));
        }
    }

    // Backends and caches. SSD backends are instantiated once per
    // device (each bound to that device's driver and queue allocator)
    // and wrapped in the scatter-gather shard fan-out; the host-side
    // cache/partition structures are shared across devices and keyed
    // by global row ids.
    dramBackend_ = std::make_unique<DramSlsBackend>(sys_.eq(), sys_.cpu());
    std::vector<SlsBackend *> per_shard;
    if (options_.backend == EmbeddingBackendKind::BaselineSsd) {
        if (options_.hostLruCache) {
            hostCache_ = std::make_unique<HostEmbeddingCache>(
                options_.hostCacheEntries);
        }
        BaselineSsdSlsBackend::Options bopt;
        bopt.hostCache = hostCache_.get();
        for (unsigned d = 0; d < sys_.numSsds(); ++d) {
            baselineBackends_.push_back(
                std::make_unique<BaselineSsdSlsBackend>(
                    sys_.eq(), sys_.cpu(), sys_.driver(d), sys_.queues(d),
                    bopt));
            per_shard.push_back(baselineBackends_.back().get());
        }
    } else if (options_.backend == EmbeddingBackendKind::Ndp) {
        if (options_.staticPartition) {
            partition_ = std::make_unique<StaticPartition>(
                options_.partitionEntries);
            buildPartition();
        }
        NdpSlsBackend::Options nopt;
        nopt.partition = partition_.get();
        for (unsigned d = 0; d < sys_.numSsds(); ++d) {
            ndpBackends_.push_back(std::make_unique<NdpSlsBackend>(
                sys_.eq(), sys_.cpu(), sys_.driver(d), sys_.queues(d),
                nopt));
            per_shard.push_back(ndpBackends_.back().get());
        }
    }
    if (!per_shard.empty()) {
        // A sub-op routed to a dead controller degrades at once instead
        // of being swallowed by it.
        shardedBackend_ = std::make_unique<ShardedSlsBackend>(
            sys_.eq(), sys_.cpu(), sys_.router(), std::move(per_shard),
            options_.resil, hostCache_.get());
        shardedBackend_->setDeviceProbe([this](unsigned d) {
            return !sys_.ssd(d).controller().dead();
        });
        // A sub-op in flight when its device dies is resolved then,
        // not lost with the device.
        for (unsigned d = 0; d < sys_.numSsds(); ++d) {
            deathHooks_.push_back(sys_.ssd(d).controller().addDeathHook(
                [this, d]() { shardedBackend_->deviceDied(d); }));
        }
    }

    // Dense layers.
    if (!model_.bottomMlp.empty() && model_.denseInputs > 0) {
        bottomMlp_ = std::make_unique<Mlp>(model_.denseInputs,
                                           model_.bottomMlp,
                                           options_.seed + 11);
    }
    if (!model_.topMlp.empty()) {
        topMlp_ = std::make_unique<Mlp>(model_.topInputDim(), model_.topMlp,
                                        options_.seed + 13, true);
    }
}

ModelRunner::~ModelRunner()
{
    for (unsigned d = 0; d < deathHooks_.size(); ++d)
        sys_.ssd(d).controller().removeDeathHook(deathHooks_[d]);
}

unsigned
ModelRunner::ssdTables() const
{
    unsigned n = 0;
    for (const auto &t : tables_)
        n += t.onSsd ? 1 : 0;
    return n;
}

std::vector<EmbeddingTableDesc>
ModelRunner::ssdTableDescs() const
{
    std::vector<EmbeddingTableDesc> out;
    for (const auto &t : tables_) {
        if (t.onSsd)
            out.push_back(t.desc);
    }
    return out;
}

void
ModelRunner::buildPartition()
{
    // Profile a separate stream drawn from the same distribution
    // ("utilizing input data profiling", §4.2), then freeze the
    // hottest rows per table into host DRAM.
    for (auto &table : tables_) {
        if (!table.onSsd)
            continue;
        TraceSpec spec = table.gen->spec();
        spec.seed ^= 0x5055ULL;
        TraceGenerator profiler(spec);
        std::uint64_t draws = std::max<std::uint64_t>(
            20'000, std::uint64_t(options_.profileBatches) * 32 *
                        table.lookups);
        for (std::uint64_t i = 0; i < draws; ++i)
            partition_->profile(table.desc.id, profiler.next());
    }
    partition_->build([this](std::uint32_t table_id, RowId row) {
        for (const auto &t : tables_) {
            if (t.desc.id == table_id)
                return synthetic::vectorOf(t.desc, row);
        }
        panic("partition value for unknown table %u", table_id);
    });
}

void
ModelRunner::launchBatch(unsigned batch_size,
                         std::function<void(Tick)> done)
{
    QueryShape shape;
    shape.batchSize = batch_size;
    launchQuery(shape, std::move(done));
}

unsigned
ModelRunner::scaledLookups(const TableRt &table, double scale) const
{
    if (scale == 1.0)
        return table.lookups;
    auto scaled = static_cast<long long>(
        std::llround(static_cast<double>(table.lookups) * scale));
    return static_cast<unsigned>(std::max<long long>(1, scaled));
}

void
ModelRunner::launchQuery(const QueryShape &shape,
                         std::function<void(Tick)> done)
{
    launchQueryEx(shape, [done = std::move(done)](Tick latency, bool) {
        if (done)
            done(latency);
    });
}

void
ModelRunner::launchQueryEx(const QueryShape &shape,
                           std::function<void(Tick, bool)> done)
{
    unsigned batch_size = shape.batchSize;
    recssd_assert(batch_size > 0, "empty batch");
    recssd_assert(shape.poolingScale > 0.0, "pooling scale must be > 0");
    auto batch = std::make_shared<BatchState>();
    batch->start = sys_.eq().now();
    if (Tracer *tracer = tracerOf(sys_.eq())) {
        batch->traceId =
            shape.traceId ? shape.traceId : tracer->newRequestId();
        batch->rootSpan = tracer->beginRequest("batch", batch->traceId);
    }
    batch->batchSize = batch_size;
    batch->tablesTouched = shape.tablesTouched;
    batch->poolingScale = shape.poolingScale;
    batch->onDone = std::move(done);
    unsigned subs = options_.pipeline
                        ? std::max(1u, std::min<unsigned>(options_.subBatches,
                                                          batch_size))
                        : 1u;
    batch->subBatchesLeft = subs;
    if (options_.functionalMlp && topMlp_)
        batch->scores = Matrix(batch_size, 1);

    unsigned base = batch_size / subs;
    unsigned extra = batch_size % subs;
    unsigned first = 0;
    for (unsigned s = 0; s < subs; ++s) {
        unsigned size = base + (s < extra ? 1 : 0);
        launchSubBatch(size, first, batch);
        first += size;
    }
}

Tick
ModelRunner::runBatch(unsigned batch_size)
{
    Tick latency = 0;
    bool finished = false;
    launchBatch(batch_size, [&](Tick t) {
        latency = t;
        finished = true;
    });
    sys_.eq().run();
    recssd_assert(finished, "batch did not complete");
    return latency;
}

void
ModelRunner::launchSubBatch(unsigned size, unsigned first_sample,
                            const std::shared_ptr<BatchState> &batch)
{
    auto state = std::make_shared<SubBatchState>();
    state->size = size;
    state->firstSample = first_sample;
    // Joins: one per table's SLS op, plus one for the bottom MLP.
    state->joinsLeft = static_cast<unsigned>(tables_.size()) + 1;
    state->pooled.resize(tables_.size());

    auto join = [this, state, batch]() {
        if (--state->joinsLeft > 0)
            return;
        // Interaction + top MLP (+ the model's extra dense compute:
        // attention, GRUs, task towers).
        std::uint64_t top_macs =
            (topMlp_ ? topMlp_->macsPerSample() : 0) +
            model_.extraMacsPerSample;
        Tick top_work = sys_.cpu().gemmCost(top_macs * state->size);
        if (top_work == 0)
            top_work = 1;
        SpanId top_span = invalidSpan;
        if (Tracer *tracer = tracerOf(sys_.eq())) {
            top_span = tracer->begin(tracer->track("host.mlp"), "top_mlp",
                                     Phase::HostCompute, batch->traceId);
        }
        runParallel(sys_.cpu(), top_work, [this, state, batch, top_span]() {
            if (Tracer *tracer = tracerOf(sys_.eq()))
                tracer->end(top_span);
            if (options_.functionalMlp && topMlp_) {
                // Concatenate bottom output and pooled embeddings.
                std::size_t top_in = model_.topInputDim();
                Matrix input(state->size, top_in);
                for (unsigned r = 0; r < state->size; ++r) {
                    std::size_t c = 0;
                    if (state->bottomOut.rows > 0) {
                        for (std::size_t i = 0; i < state->bottomOut.cols;
                             ++i)
                            input.at(r, c++) = state->bottomOut.at(r, i);
                    } else if (model_.denseInputs > 0) {
                        for (std::size_t i = 0; i < state->dense.cols; ++i)
                            input.at(r, c++) = state->dense.at(r, i);
                    }
                    for (std::size_t t = 0; t < tables_.size(); ++t) {
                        const auto &pooled = state->pooled[t];
                        std::uint32_t dim = tables_[t].desc.dim;
                        for (std::uint32_t e = 0; e < dim; ++e)
                            input.at(r, c++) = pooled[r * dim + e];
                    }
                    recssd_assert(c == top_in, "interaction width mismatch");
                }
                Matrix out = topMlp_->forward(input);
                for (unsigned r = 0; r < state->size; ++r)
                    batch->scores.at(state->firstSample + r, 0) =
                        out.at(r, 0);
                batch->scoresFilled += state->size;
            }
            if (--batch->subBatchesLeft == 0) {
                batch->done = true;
                batch->latency = sys_.eq().now() - batch->start;
                if (Tracer *tracer = tracerOf(sys_.eq()))
                    tracer->end(batch->rootSpan);
                if (options_.functionalMlp && topMlp_)
                    lastScores_ = batch->scores;
                if (batch->onDone)
                    batch->onDone(batch->latency, batch->degraded);
            }
        });
    };

    // Dense features + bottom MLP.
    if (model_.denseInputs > 0) {
        state->dense = Matrix(size, model_.denseInputs);
        for (auto &v : state->dense.data)
            v = static_cast<float>(denseRng_.uniformDouble());
    }
    Tick bottom_work =
        bottomMlp_ ? sys_.cpu().gemmCost(bottomMlp_->macsPerSample() * size)
                   : 1;
    SpanId bottom_span = invalidSpan;
    if (Tracer *tracer = tracerOf(sys_.eq())) {
        bottom_span = tracer->begin(tracer->track("host.mlp"), "bottom_mlp",
                                    Phase::HostCompute, batch->traceId);
    }
    runParallel(sys_.cpu(), bottom_work, [this, state, join, bottom_span]() {
        if (Tracer *tracer = tracerOf(sys_.eq()))
            tracer->end(bottom_span);
        if (options_.functionalMlp && bottomMlp_)
            state->bottomOut = bottomMlp_->forward(state->dense);
        join();
    });

    // Embedding operations, one per table. Tables beyond the query's
    // tablesTouched horizon run with empty index lists: the operator
    // still dispatches (and the result keeps its layout) but gathers
    // nothing, which is how sparse queries skip feature groups.
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        TableRt &table = tables_[t];
        SlsOp op;
        op.table = &table.desc;
        op.traceId = batch->traceId;
        if (t < batch->tablesTouched) {
            op.indices = table.gen->nextBatch(
                size, scaledLookups(table, batch->poolingScale));
        } else {
            op.indices.assign(size, {});
        }
        if (!table.onSsd) {
            dramBackend_->run(op, [state, t, join](SlsResult result) {
                state->pooled[t] = std::move(result);
                join();
            });
            continue;
        }
        // SSD tables always go through the scatter-gather wrapper, on
        // the entry point that carries the degraded flag up to the
        // batch completion.
        shardedBackend_->runEx(op, [state, t, join, batch](SlsResult result,
                                                           bool degraded) {
            if (degraded)
                batch->degraded = true;
            state->pooled[t] = std::move(result);
            join();
        });
    }
}

RunStats
ModelRunner::measure(unsigned batch_size, unsigned warmup_batches,
                     unsigned batches)
{
    for (unsigned i = 0; i < warmup_batches; ++i)
        runBatch(batch_size);

    if (hostCache_)
        hostCache_->resetStats();
    if (partition_)
        partition_->resetStats();
    std::uint64_t flash_before = 0;
    std::uint64_t pc_hits_before = 0;
    std::uint64_t pc_misses_before = 0;
    std::uint64_t tier_hits_before = 0;
    std::uint64_t tier_misses_before = 0;
    for (unsigned d = 0; d < sys_.numSsds(); ++d) {
        if (auto *cache = sys_.ssd(d).slsEngine().embeddingCache())
            cache->resetStats();
        flash_before += sys_.ssd(d).flash().pageReads();
        pc_hits_before += sys_.ssd(d).ftl().pageCache().hits();
        pc_misses_before += sys_.ssd(d).ftl().pageCache().misses();
        if (const LayoutManager *lay = sys_.ssd(d).ftl().layout()) {
            tier_hits_before += lay->tier().hits();
            tier_misses_before += lay->tier().misses();
        }
    }

    RunStats stats;
    stats.batches = batches;
    double total = 0.0;
    double lo = 1e300;
    double hi = 0.0;
    for (unsigned i = 0; i < batches; ++i) {
        double us = ticksToUs(runBatch(batch_size));
        total += us;
        lo = std::min(lo, us);
        hi = std::max(hi, us);
    }
    stats.avgLatencyUs = total / batches;
    stats.minLatencyUs = lo;
    stats.maxLatencyUs = hi;
    if (hostCache_)
        stats.hostCacheHitRate = hostCache_->hitRate();
    if (partition_)
        stats.partitionHitRate = partition_->hitRate();
    std::uint64_t flash_after = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_total = 0;
    std::uint64_t pc_hits = 0;
    std::uint64_t pc_misses = 0;
    std::uint64_t tier_hits = 0;
    std::uint64_t tier_misses = 0;
    for (unsigned d = 0; d < sys_.numSsds(); ++d) {
        flash_after += sys_.ssd(d).flash().pageReads();
        if (auto *cache = sys_.ssd(d).slsEngine().embeddingCache()) {
            cache_hits += cache->hits();
            cache_total += cache->hits() + cache->misses();
        }
        pc_hits += sys_.ssd(d).ftl().pageCache().hits();
        pc_misses += sys_.ssd(d).ftl().pageCache().misses();
        if (const LayoutManager *lay = sys_.ssd(d).ftl().layout()) {
            tier_hits += lay->tier().hits();
            tier_misses += lay->tier().misses();
        }
    }
    if (cache_total > 0) {
        stats.ssdEmbedCacheHitRate =
            static_cast<double>(cache_hits) / cache_total;
    }
    pc_hits -= pc_hits_before;
    pc_misses -= pc_misses_before;
    tier_hits -= tier_hits_before;
    tier_misses -= tier_misses_before;
    if (pc_hits + pc_misses > 0) {
        stats.ssdPageCacheHitRate =
            static_cast<double>(pc_hits) / (pc_hits + pc_misses);
    }
    if (tier_hits + tier_misses > 0) {
        stats.hotTierHitRate =
            static_cast<double>(tier_hits) / (tier_hits + tier_misses);
    }
    stats.flashPageReads = flash_after - flash_before;
    return stats;
}

}  // namespace recssd
