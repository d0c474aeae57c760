/**
 * @file
 * google-benchmark microbenches for the simulator's hot paths: the
 * event kernel, the caches, trace generation, and the SLS interface
 * encode/decode. These guard the simulator's own performance (the
 * figure benches replay millions of events).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/cache/host_embedding_cache.h"
#include "src/cache/lru_cache.h"
#include "src/cache/set_assoc_lru.h"
#include "src/common/analysis.h"
#include "src/common/event_queue.h"
#include "src/common/random.h"
#include "src/embedding/synthetic_values.h"
#include "src/ndp/embedding_cache.h"
#include "src/ndp/sls_config.h"
#include "src/trace/trace_gen.h"

namespace
{

using namespace recssd;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&sink]() {
                RECSSD_CAPTURES_MAPPING("sink outlives eq.run() below");
                ++sink;
            });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** Shared state of the self-rescheduling events below. */
struct HoldContext
{
    EventQueue *eq;
    Rng rng;
};

/** An event that reschedules a copy of itself a random delay ahead:
 *  the "hold" model, which keeps the pending count constant. The
 *  callable is exactly `Bytes` bytes. */
template <std::size_t Bytes>
struct HoldEvent
{
    HoldContext *ctx;
    std::array<unsigned char, Bytes - sizeof(HoldContext *)> pad{};

    void
    operator()() const
    {
        ctx->eq->scheduleAfter((1 + ctx->rng.uniformInt(4000)) * nsec,
                               HoldEvent(*this));
    }
};

/**
 * Kernel cost per event with `state.range(0)` events pending (160 is
 * the mean depth measured while one ndp_4ssd_uniform query runs) and
 * a `Bytes`-byte capture: 16 fits inline, 64 and 96 take the spill
 * pool.
 */
template <std::size_t Bytes>
void
BM_EventQueueAtDepth(benchmark::State &state)
{
    EventQueue eq;
    HoldContext ctx{&eq, Rng(12345)};
    for (std::int64_t i = 0; i < state.range(0); ++i)
        eq.scheduleAfter((1 + ctx.rng.uniformInt(4000)) * nsec,
                         HoldEvent<Bytes>{&ctx});
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.runOne();
    }
    benchmark::DoNotOptimize(eq.now());
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK_TEMPLATE(BM_EventQueueAtDepth, 16)->Arg(160);
BENCHMARK_TEMPLATE(BM_EventQueueAtDepth, 64)->Arg(160);
BENCHMARK_TEMPLATE(BM_EventQueueAtDepth, 96)->Arg(160);

void
BM_SetAssocLruAccess(benchmark::State &state)
{
    SetAssocLru cache(4096, 16);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.uniformInt(16384)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocLruAccess);

void
BM_LruCachePutGet(benchmark::State &state)
{
    LruCache<std::uint64_t, std::uint64_t> cache(2048);
    Rng rng(1);
    for (auto _ : state) {
        std::uint64_t key = rng.uniformInt(8192);
        if (!cache.get(key))
            cache.put(key, key);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCachePutGet);

/** The baseline backend's cache traffic: Zipf(1.05) rows of a 100k-row
 *  table through a 2048-row LRU of 32-float rows; a miss fills the
 *  row. */
void
BM_HostEmbeddingCacheZipf(benchmark::State &state)
{
    constexpr std::uint32_t kDim = 32;
    HostEmbeddingCache cache(2048);
    ZipfSampler zipf(100'000, 1.05);
    Rng rng(1);
    float sum = 0.0f;
    for (auto _ : state) {
        RowId row = zipf.sample(rng);
        if (const float *vec = cache.get(0, row)) {
            sum += vec[0];
            continue;
        }
        cache.fill(0, row, kDim, [row](std::span<float> out) {
            std::ranges::fill(out, static_cast<float>(row & 0xF));
        });
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostEmbeddingCacheZipf);

void
BM_EmbeddingCacheLookup(benchmark::State &state)
{
    EmbeddingCache cache(32 * 1024 * 1024, 128);
    std::vector<std::byte> vec(128);
    for (std::uint64_t r = 0; r < 10000; ++r)
        cache.insert(0, r, vec);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.lookup(0, rng.uniformInt(20000), vec));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmbeddingCacheLookup);

void
BM_SlsConfigRoundTrip(benchmark::State &state)
{
    SlsConfig cfg;
    cfg.featureDim = 32;
    cfg.numResults = 64;
    for (std::uint32_t i = 0; i < 5120; ++i)
        cfg.pairs.push_back(SlsPair{i * 7, i % 64});
    std::sort(cfg.pairs.begin(), cfg.pairs.end(),
              [](auto &a, auto &b) { return a.inputId < b.inputId; });
    for (auto _ : state) {
        auto bytes = cfg.serialize();
        SlsConfig out;
        bool ok = SlsConfig::deserialize(bytes, out);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(state.iterations() * cfg.pairs.size());
}
BENCHMARK(BM_SlsConfigRoundTrip);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 1.05);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
// 100k rows is the baseline workload's table; 1M a large one.
BENCHMARK(BM_ZipfSample)->Arg(100'000)->Arg(1'000'000);

void
BM_LocalityTraceNext(benchmark::State &state)
{
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.k = 1.0;
    TraceGenerator gen(spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityTraceNext);

void
BM_SyntheticVectorFill(benchmark::State &state)
{
    EmbeddingTableDesc desc;
    desc.id = 3;
    desc.rows = 1'000'000;
    desc.dim = 64;
    std::vector<std::byte> out(desc.vectorBytes());
    Rng rng(1);
    for (auto _ : state)
        synthetic::fillVector(desc, rng.uniformInt(desc.rows), out);
    state.SetItemsProcessed(state.iterations() * desc.dim);
}
BENCHMARK(BM_SyntheticVectorFill);

}  // namespace
