#include "src/embedding/ndp_backend.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/common/logging.h"
#include "src/ndp/sls_config.h"
#include "src/obs/tracer.h"

namespace recssd
{

namespace
{

struct NdpOpState
{
    EmbeddingTableDesc table;
    std::uint64_t traceId = 0;
    SlsConfig config;
    /** Hot contributions: (result index, resident vector). */
    std::vector<std::pair<std::uint32_t, const std::vector<float> *>> hot;
    SlsResult result;
    SlsBackend::Done done;
};

}  // namespace

NdpSlsBackend::NdpSlsBackend(EventQueue &eq, HostCpu &cpu,
                             UnvmeDriver &driver, QueueAllocator &queues,
                             Options options)
    : eq_(eq), cpu_(cpu), driver_(driver), queues_(queues), options_(options)
{
}

void
NdpSlsBackend::run(const SlsOp &op, Done done)
{
    recssd_assert(op.table != nullptr, "SLS op without table");
    ops_.inc();
    auto state = std::make_shared<NdpOpState>();
    state->table = *op.table;
    state->traceId = op.traceId;
    state->result.assign(op.batch() * op.table->dim, 0.0f);
    state->done = std::move(done);

    SlsConfig &cfg = state->config;
    cfg.featureDim = op.table->dim;
    cfg.attrBytes = op.table->attrBytes;
    cfg.rowsPerPage = op.table->rowsPerPage;
    cfg.numResults = static_cast<std::uint32_t>(op.batch());

    for (std::uint32_t b = 0; b < op.indices.size(); ++b) {
        for (RowId row : op.indices[b]) {
            if (options_.partition) {
                // Partition entries are keyed by global row id so one
                // profile serves every shard slice of the table.
                if (const auto *vec = options_.partition->lookup(
                        state->table.id, state->table.globalRow(row))) {
                    hotLookups_.inc();
                    state->hot.emplace_back(b, vec);
                    continue;
                }
            }
            coldLookups_.inc();
            cfg.pairs.push_back(
                SlsPair{static_cast<std::uint32_t>(row), b});
        }
    }
    // The interface requires the list sorted by input id so the device
    // can group by page in one scan (§4.3).
    std::stable_sort(cfg.pairs.begin(), cfg.pairs.end(),
                     [](const SlsPair &a, const SlsPair &b) {
                         return a.inputId < b.inputId;
                     });

    auto finish = [this, state]() {
        // Merge the hot (host-resident) contributions into the
        // returned partial sums.
        const std::uint32_t dim = state->table.dim;
        Tick merge = cpu_.params().extractBase;
        for (auto &[b, vec] : state->hot) {
            float *res = state->result.data() + std::size_t(b) * dim;
            for (std::uint32_t e = 0; e < dim; ++e)
                res[e] += (*vec)[e];
            merge += cpu_.dramLookupCost(state->table.vectorBytes());
        }
        SpanId merge_span = invalidSpan;
        if (Tracer *tracer = tracerOf(eq_)) {
            merge_span = tracer->begin(tracer->track("host.sls"), "merge",
                                       Phase::HostCompute, state->traceId);
        }
        cpu_.run(merge, [this, state, merge_span]() {
            if (Tracer *tracer = tracerOf(eq_))
                tracer->end(merge_span);
            state->done(state->result);
        });
    };

    if (cfg.pairs.empty()) {
        // Everything was host resident; no device round trip at all.
        finish();
        return;
    }

    SpanId wait_span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        wait_span = tracer->begin(tracer->track("host.sls"), "queue_wait",
                                  Phase::HostQueueWait, state->traceId);
    }
    queues_.acquire([this, state, finish, wait_span](unsigned q) {
        if (Tracer *tracer = tracerOf(eq_))
            tracer->end(wait_span);
        std::uint64_t req = driver_.allocRequestId();
        Lpn base = state->table.baseLpn;
        driver_.slsConfigWrite(
            q, base, req, state->config,
            [this, state, q, base, req, finish]() {
                driver_.slsResultRead(
                    q, base, req,
                    [this, state, q, finish](DataStore::Page bytes) {
                        queues_.release(q);
                        // Unpack the device's partial sums.
                        std::size_t raw =
                            state->result.size() * sizeof(float);
                        recssd_assert(bytes->size() >= raw,
                                      "short SLS result payload");
                        std::memcpy(state->result.data(), bytes->data(),
                                    raw);
                        finish();
                    },
                    state->traceId);
            },
            state->traceId);
    });
}

}  // namespace recssd
