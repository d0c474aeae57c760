#include "hostbench/src/oracle.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "src/embedding/baseline_backend.h"
#include "src/embedding/ndp_backend.h"
#include "src/embedding/synthetic_values.h"
#include "src/trace/trace_gen.h"

namespace hostbench
{

using namespace recssd;

namespace
{

/** Whether `value` is `row`'s pristine vector or one of its first
 *  `max_version` updated ones; counts an updated row in `tally`. */
bool
heldVersion(const EmbeddingTableDesc &desc, RowId row,
            const SlsResult &value, std::uint64_t max_version,
            OracleTally &tally)
{
    if (bitEqual(value, synthetic::vectorOf(desc, row)))
        return true;
    for (std::uint64_t v = 1; v <= max_version; ++v) {
        if (bitEqual(value, synthetic::updatedVector(desc, row, v))) {
            ++tally.updatedRows;
            return true;
        }
    }
    return false;
}

/**
 * Read every distinct row of `op` alone on `backend`; true when each
 * holds an allowed version and `got` is the per-sample sum of them.
 */
bool
sumOfHeldRows(System &sys, SlsBackend &backend, const SlsOp &op,
              const SlsResult &got, std::uint64_t max_version,
              OracleTally &tally)
{
    const EmbeddingTableDesc &desc = *op.table;
    std::map<RowId, SlsResult> held;
    SlsResult expect(op.indices.size() * desc.dim, 0.0f);
    for (std::size_t s = 0; s < op.indices.size(); ++s) {
        for (RowId row : op.indices[s]) {
            auto it = held.find(row);
            if (it == held.end()) {
                SlsOp one;
                one.table = op.table;
                one.indices = {{row}};
                SlsResult value = runToCompletion(sys, backend, one);
                if (!heldVersion(desc, row, value, max_version, tally))
                    return false;
                it = held.emplace(row, std::move(value)).first;
            }
            for (std::uint32_t e = 0; e < desc.dim; ++e)
                expect[s * desc.dim + e] += it->second[e];
        }
    }
    return bitEqual(got, expect);
}

unsigned
subBatches(const RunnerOptions &options, unsigned batch)
{
    return options.pipeline ? std::max(1u, std::min(options.subBatches, batch))
                            : 1u;
}

}  // namespace

bool
bitEqual(const SlsResult &a, const SlsResult &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

OpStream
buildOps(std::vector<EmbeddingTableDesc> descs, const ModelConfig &model,
         const RunnerOptions &options, unsigned batch, unsigned queries)
{
    OpStream out;
    out.descs = std::move(descs);
    std::vector<unsigned> lookups;
    for (const TableGroup &g : model.tables) {
        for (unsigned i = 0; i < g.count; ++i)
            lookups.push_back(g.lookups);
    }
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    for (const EmbeddingTableDesc &desc : out.descs) {
        TraceSpec ts = options.trace;
        ts.universe = desc.rows;
        ts.seed = options.seed * 7919 + desc.id * 104729 + 1;
        gens.push_back(std::make_unique<TraceGenerator>(ts));
    }
    const unsigned subs = subBatches(options, batch);
    for (unsigned q = 0; q < queries; ++q) {
        for (unsigned s = 0; s < subs; ++s) {
            const unsigned samples = batch / subs + (s < batch % subs);
            for (std::size_t t = 0; t < out.descs.size(); ++t) {
                SlsOp op;
                op.table = &out.descs[t];
                op.indices = gens[t]->nextBatch(samples, lookups.at(t));
                out.ops.push_back(std::move(op));
            }
        }
    }
    return out;
}

unsigned
opsPerQuery(const RunnerOptions &options, unsigned batch, std::size_t tables)
{
    return subBatches(options, batch) * static_cast<unsigned>(tables);
}

SlsResult
runToCompletion(System &sys, SlsBackend &backend, const SlsOp &op)
{
    SlsResult out;
    backend.run(op, [&out](SlsResult r) { out = std::move(r); });
    sys.eq().run();
    return out;
}

Backends
makeBackends(System &sys, const WorkloadSpec &spec)
{
    Backends b;
    if (spec.hostLruCache) {
        b.hostCache = std::make_unique<HostEmbeddingCache>(
            RunnerOptions{}.hostCacheEntries);
    }
    std::vector<SlsBackend *> inner;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        if (spec.backend == EmbeddingBackendKind::Ndp) {
            b.devices.push_back(std::make_unique<NdpSlsBackend>(
                sys.eq(), sys.cpu(), sys.driver(d), sys.queues(d),
                NdpSlsBackend::Options{}));
        } else {
            BaselineSsdSlsBackend::Options opt;
            opt.hostCache = b.hostCache.get();
            b.devices.push_back(std::make_unique<BaselineSsdSlsBackend>(
                sys.eq(), sys.cpu(), sys.driver(d), sys.queues(d), opt));
        }
        inner.push_back(b.devices.back().get());
    }
    b.sharded = std::make_unique<ShardedSlsBackend>(sys.eq(), sys.cpu(),
                                                    sys.router(), inner);
    return b;
}

void
checkOp(System &sys, SlsBackend &backend, const SlsOp &op,
        std::uint64_t max_version, OracleTally &tally)
{
    DramSlsBackend dram(sys.eq(), sys.cpu());
    const SlsResult got = runToCompletion(sys, backend, op);
    ++tally.checked;
    if (bitEqual(got, runToCompletion(sys, dram, op)))
        return;
    if (max_version == 0 ||
        !sumOfHeldRows(sys, backend, op, got, max_version, tally))
        ++tally.mismatches;
}

void
checkServed(const WorkloadSpec &spec, std::uint64_t seed, Machine &m,
            unsigned min_ops, std::uint64_t updates_applied,
            OracleTally &tally)
{
    System &sys = *m.sys;
    std::vector<EmbeddingTableDesc> descs;
    Backends fresh;
    SlsBackend *backend = nullptr;
    if (m.runner) {
        descs = m.runner->ssdTableDescs();
        backend = m.runner->shardedBackend();
    } else {
        // A tenant mix's runners end with the serve; the tables they
        // installed (ids from 0) stay on the drive.
        for (std::uint32_t id = 0; sys.router().knows(id); ++id)
            descs.push_back(sys.router().tableOf(id).global);
        fresh = makeBackends(sys, spec);
        backend = fresh.sharded.get();
    }
    const RunnerOptions opt = runnerOptions(spec, seed);
    const unsigned per_query = opsPerQuery(opt, spec.batch, descs.size());
    OpStream s = buildOps(std::move(descs), modelFor(spec), opt, spec.batch,
                          (min_ops + per_query - 1) / per_query);
    for (const SlsOp &op : s.ops)
        checkOp(sys, *backend, op, updates_applied, tally);
}

}  // namespace hostbench
