#include "src/shard/sharded_backend.h"

#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace recssd
{

/** One slice of one op: its candidate devices and issue state. */
struct ShardedSlsBackend::Sub
{
    /** Candidate devices in try order (rotated primary + replicas). */
    std::vector<unsigned> shards;
    /** Candidate-local descriptors, parallel to `shards`. */
    std::vector<const EmbeddingTableDesc *> descs;
    /** Slice-local indices (valid against every candidate desc). */
    std::vector<std::vector<RowId>> indices;
    unsigned next = 0;      ///< next candidate index to try
    unsigned issues = 0;    ///< issues so far (>1 = hedged)
    unsigned inflight = 0;  ///< issues neither answered nor lost
    bool hedgeArmed = false;  ///< a hedge timer is pending
    bool served = false;    ///< a result (or degraded fill) landed
};

/** Barrier state of one scattered operation. */
struct ShardedSlsBackend::Gather
{
    std::uint64_t traceId = 0;
    std::uint32_t dim = 0;
    /** Floats in the answer (batch x dim). */
    std::size_t size = 0;
    /** Empty until the first partial (moved in) or degraded fill. */
    SlsResult result;
    unsigned left = 0;      ///< unserved subs
    unsigned partials = 0;  ///< total subs (reduce cost)
    bool finished = false;
    bool degraded = false;
    DoneEx done;
    std::vector<std::shared_ptr<Sub>> subs;
};

ShardedSlsBackend::ShardedSlsBackend(EventQueue &eq, HostCpu &cpu,
                                     ShardRouter &router,
                                     std::vector<SlsBackend *> inner,
                                     const ResilConfig &config,
                                     HostEmbeddingCache *host_cache)
    : eq_(eq), cpu_(cpu), router_(router), inner_(std::move(inner)),
      config_(config), hostCache_(host_cache), hedge_(config.hedge),
      health_(router.numShards(), config.ejectAfterFailures,
              config.ejectCooldown),
      inflight_(router.numShards()), shardLatency_(router.numShards()),
      lateCompletions_(router.numShards(), 0)
{
    recssd_assert(inner_.size() == router_.numShards(),
                  "one inner backend per shard required (%zu vs %u)",
                  inner_.size(), router_.numShards());
    for (const auto *b : inner_)
        recssd_assert(b != nullptr, "null shard backend");
}

std::string
ShardedSlsBackend::name() const
{
    return "sharded-" + std::to_string(router_.numShards()) + "x" +
           std::to_string(router_.replication()) + "r-" +
           inner_.front()->name();
}

bool
ShardedSlsBackend::healthy(unsigned dev) const
{
    if (health_.ejected(dev, eq_.now()))
        return false;
    return !probe_ || probe_(dev);
}

std::vector<unsigned>
ShardedSlsBackend::unhealthyDevices() const
{
    std::vector<unsigned> out;
    for (unsigned d = 0; d < router_.numShards(); ++d)
        if (!healthy(d))
            out.push_back(d);
    return out;
}

void
ShardedSlsBackend::run(const SlsOp &op, Done done)
{
    runEx(op, [done = std::move(done)](SlsResult r, bool) {
        done(std::move(r));
    });
}

void
ShardedSlsBackend::runEx(const SlsOp &op, DoneEx done)
{
    recssd_assert(op.table != nullptr, "SLS op without table");
    const ShardedTable &st = router_.tableOf(op.table->id);
    auto slices = router_.split(op);

    auto gop = std::make_shared<Gather>();
    gop->traceId = op.traceId;
    gop->dim = op.table->dim;
    gop->size = op.batch() * op.table->dim;
    gop->done = std::move(done);

    // Candidate order per sub-op: primary + replicas, rotated so
    // replica reads balance. The counter advances once per *op* and
    // each slice adds its index — advancing per sub would alias
    // against even sub counts (4 slices x 2 candidates locks every
    // slice to one fixed candidate forever). Deterministic: both the
    // op counter and the slice index are simulation state.
    std::uint64_t op_seq = rr_++;
    auto makeSub = [op_seq](const ShardSlice &slice, std::size_t slice_idx,
                            std::vector<std::vector<RowId>> idx) {
        auto sub = std::make_shared<Sub>();
        unsigned ncand = 1 + static_cast<unsigned>(slice.replicas.size());
        unsigned rot = ncand > 1
                           ? static_cast<unsigned>((op_seq + slice_idx) %
                                                   ncand)
                           : 0;
        for (unsigned k = 0; k < ncand; ++k) {
            unsigned c = (rot + k) % ncand;
            if (c == 0) {
                sub->shards.push_back(slice.shard);
                sub->descs.push_back(&slice.desc);
            } else {
                sub->shards.push_back(slice.replicas[c - 1].shard);
                sub->descs.push_back(&slice.replicas[c - 1].desc);
            }
        }
        sub->indices = std::move(idx);
        return sub;
    };

    if (slices.empty()) {
        // Degenerate op (all bags empty): the operator still
        // dispatches once, on the table's home slice, so sparse
        // queries keep their per-op overhead under any layout.
        gop->subs.push_back(makeSub(
            st.slices.front(), 0,
            std::vector<std::vector<RowId>>(op.batch())));
    } else {
        if (slices.size() > 1)
            ++scatteredOps_;
        for (std::size_t i = 0; i < slices.size(); ++i) {
            gop->subs.push_back(makeSub(*slices[i].slice, i,
                                        std::move(slices[i].indices)));
        }
    }
    gop->left = gop->partials = static_cast<unsigned>(gop->subs.size());

    if (config_.deadline > 0) {
        eq_.scheduleAfter(config_.deadline, [this, gop]() {
            if (gop->finished)
                return;
            ++deadlineMisses_;
            gop->degraded = true;
            for (auto &sub : gop->subs)
                if (!sub->served)
                    degradeSub(*gop, *sub);
            // Deliver immediately: the deadline already expired, so no
            // reduce charge — the host ships what it has.
            finishOp(gop, /*immediate=*/true);
        });
    }

    for (auto &sub : gop->subs)
        issueSub(gop, sub);
}

void
ShardedSlsBackend::degradeSub(Gather &op, Sub &sub)
{
    // Best effort from the host LRU (keyed by global row); anything
    // not cached contributes zero. Not counted as served work —
    // `served` only blocks double accumulation.
    sub.served = true;
    op.degraded = true;
    ++degradedFills_;
    if (op.result.empty())
        op.result.assign(op.size, 0.0f);
    if (!hostCache_)
        return;
    const EmbeddingTableDesc &d = *sub.descs.front();
    for (std::size_t b = 0; b < sub.indices.size(); ++b) {
        for (RowId local : sub.indices[b]) {
            const float *vec = hostCache_->get(d.id, d.rowBase + local);
            if (!vec)
                continue;
            for (std::uint32_t e = 0; e < d.dim; ++e)
                op.result[b * op.dim + e] += vec[e];
        }
    }
}

void
ShardedSlsBackend::finishOp(const std::shared_ptr<Gather> &op,
                            bool immediate)
{
    op->finished = true;
    if (immediate || op->partials <= 1) {
        op->done(std::move(op->result), op->degraded);
        return;
    }
    // Host-side reduce of the extra partial result sets: one
    // streaming accumulate pass per partial beyond the first.
    std::uint32_t vec_bytes = op->dim * 4;
    std::size_t vectors = op->size / op->dim;
    Tick reduce = cpu_.params().extractBase +
                  cpu_.dramLookupCost(vec_bytes) * (op->partials - 1) *
                      vectors;
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        span = tracer->begin(tracer->track("host.sls"), "shard_gather",
                             Phase::HostCompute, op->traceId);
    }
    cpu_.run(reduce, [this, op, span]() {
        if (Tracer *tracer = tracerOf(eq_))
            tracer->end(span);
        op->done(std::move(op->result), op->degraded);
    });
}

void
ShardedSlsBackend::issueSub(const std::shared_ptr<Gather> &op,
                            const std::shared_ptr<Sub> &sub)
{
    if (op->finished || sub->served)
        return;

    // Skip candidates that are dead or ejected (each skip is a
    // failover: a replica absorbs the unhealthy device's read).
    while (sub->next < sub->shards.size() &&
           !healthy(sub->shards[sub->next])) {
        ++failovers_;
        ++sub->next;
    }
    if (sub->next >= sub->shards.size()) {
        if (sub->inflight == 0) {
            // Every candidate is gone and nothing is in flight:
            // degrade now rather than hang until the deadline.
            degradeSub(*op, *sub);
            if (--op->left == 0)
                finishOp(op, /*immediate=*/false);
        }
        // Otherwise an earlier issue is still in flight; it or the
        // deadline will resolve this sub.
        return;
    }

    unsigned idx = sub->next++;
    unsigned dev = sub->shards[idx];
    unsigned ord = sub->issues++;
    const std::uint64_t id = issuesTotal_++;
    ++sub->inflight;
    inflight_[dev].emplace(id, Issue{op, sub});

    // Lend the indices to the inner backend for the call: it reads
    // them before returning, and a hedge re-issue or a degraded fill
    // needs them again afterwards.
    SlsOp s;
    s.table = sub->descs[idx];
    s.indices = std::move(sub->indices);
    s.traceId = op->traceId;
    Tick issued = eq_.now();
    inner_[dev]->run(s, [this, op, sub, dev, issued, ord, id](SlsResult r) {
        // Not in the map: a completion already in transit when its
        // device died, after deviceDied counted the issue lost.
        if (inflight_[dev].erase(id) > 0)
            --sub->inflight;
        Tick latency = eq_.now() - issued;
        shardLatency_[dev].record(latency);
        hedge_.observe(latency);
        health_.recordSuccess(dev);
        ++completionsTotal_;
        if (op->finished)
            ++lateCompletions_[dev];
        if (sub->served) {
            // First completion already won; this one is hedge waste.
            ++duplicateCompletions_;
            return;
        }
        sub->served = true;
        ++servedSubs_;
        if (ord > 0)
            ++hedgeWins_;
        if (op->finished)
            return;  // op already delivered degraded; result discarded
        // Gather: partials keep the full batch x dim layout, so the
        // reduce is an elementwise sum — exact for the integer
        // synthetic values, hence order independent.
        recssd_assert(r.size() == op->size, "shard partial layout mismatch");
        if (op->result.empty()) {
            op->result = std::move(r);
        } else {
            for (std::size_t i = 0; i < r.size(); ++i)
                op->result[i] += r[i];
        }
        if (--op->left == 0)
            finishOp(op, /*immediate=*/false);
    });
    sub->indices = std::move(s.indices);

    // Arm the hedge: if this issue is still unanswered after the
    // policy delay, charge a timeout against the device and re-issue
    // to the next untried healthy candidate.
    if (hedge_.active() && sub->next < sub->shards.size()) {
        sub->hedgeArmed = true;
        eq_.scheduleAfter(hedge_.delay(), [this, op, sub, dev]() {
            sub->hedgeArmed = false;
            if (sub->served || op->finished)
                return;
            health_.recordTimeout(dev, eq_.now());
            unsigned probe = sub->next;
            while (probe < sub->shards.size() &&
                   !healthy(sub->shards[probe]))
                ++probe;
            if (probe >= sub->shards.size()) {
                // No one left to hedge to. If the issue died with its
                // device and no deadline will resolve the sub-op,
                // degrade it now.
                if (sub->inflight == 0 && config_.deadline == 0)
                    issueSub(op, sub);
                return;
            }
            ++hedgesFired_;
            issueSub(op, sub);
        });
    }
}

void
ShardedSlsBackend::deviceDied(unsigned dev)
{
    std::map<std::uint64_t, Issue> lost = std::move(inflight_.at(dev));
    inflight_[dev].clear();
    for (auto &[id, issue] : lost) {
        Sub &sub = *issue.sub;
        --sub.inflight;
        // A deadline, a pending hedge or another in-flight issue still
        // resolves the sub-op; only one left with none is resolved here.
        if (config_.deadline == 0 && !sub.hedgeArmed && sub.inflight == 0)
            issueSub(issue.op, issue.sub);
    }
}

}  // namespace recssd
