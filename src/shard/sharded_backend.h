/**
 * @file
 * Scatter-gather SLS over sharded tables, with tail tolerance.
 *
 * `ShardedSlsBackend` wraps one per-device backend per shard (any
 * `SlsBackend` — DRAM, baseline SSD or NDP) behind the same interface
 * the model runner already uses. Each operation is split by the
 * `ShardRouter` into shard-local sub-ops, issued concurrently on the
 * owning devices, and the partial sums are gathered at the host under
 * a per-op completion barrier. Synthetic values are small integers, so
 * fp32 accumulation is exact and the gathered result is independent of
 * shard completion order — the property tests rely on this. A single
 * sub-op is delivered as its device answered it: no gather cost, so
 * one device times exactly like the unsharded seed path.
 *
 * On top of that shape sits the reliability machinery production
 * serving needs when a device misbehaves (`ResilConfig`, src/resil);
 * every knob defaults off:
 *
 *  - **Replica read balancing**: with R-way replication each sub-op
 *    has R candidate devices (primary + replicas, rotated per sub-op
 *    by a round-robin counter so read load spreads). Candidates that
 *    fail the liveness probe or were ejected by the `HealthTracker`
 *    are skipped (a failover).
 *  - **Hedged sub-ops**: after `HedgePolicy::delay()` with no
 *    completion, the sub-op is re-issued to the next untried healthy
 *    candidate. First completion wins; the loser is counted as a
 *    duplicate completion (waste), and completions arriving after the
 *    parent op already delivered are counted per device as late.
 *  - **Deadlines**: a per-op timer; on expiry the op delivers
 *    immediately with whatever partials arrived, degraded-filling
 *    unserved slices from the host embedding cache (global-row probe)
 *    or zeros, and flags the answer degraded.
 *  - **Dead-end degradation**: a sub-op whose every candidate is dead
 *    or ejected degrades immediately instead of waiting for the
 *    deadline. With replication 1 that is any sub-op routed to a
 *    device the probe reports dead.
 *  - **Lost issues**: a device that dies mid-run swallows the sub-ops
 *    in flight on it (`deviceDied`). A deadline, a pending hedge or
 *    another issue of the same sub-op still resolves each one as
 *    before; a sub-op left with none fails over to its next healthy
 *    candidate at once, or degrades at a dead end.
 *
 * Determinism: no randomness at all — candidate rotation is a
 * counter, hedge delays are functions of observed sim latencies, and
 * every decision happens inside event callbacks. Two runs of the same
 * config hedge, fail over and degrade identically.
 */

#ifndef RECSSD_SHARD_SHARDED_BACKEND_H
#define RECSSD_SHARD_SHARDED_BACKEND_H

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/cache/host_embedding_cache.h"
#include "src/common/event_queue.h"
#include "src/embedding/sls_backend.h"
#include "src/host/host_cpu.h"
#include "src/load/latency_recorder.h"
#include "src/resil/health.h"
#include "src/resil/hedge.h"
#include "src/resil/resil_config.h"
#include "src/shard/shard_router.h"

namespace recssd
{

class ShardedSlsBackend : public SlsBackend
{
  public:
    /** Completion with the per-op degraded flag. */
    using DoneEx = std::function<void(SlsResult, bool degraded)>;

    /**
     * @param inner One backend per shard, in shard order; each must be
     *        bound to that shard's device (driver + queues). Not
     *        owned.
     * @param host_cache Optional host LRU used for degraded fills.
     */
    ShardedSlsBackend(EventQueue &eq, HostCpu &cpu, ShardRouter &router,
                      std::vector<SlsBackend *> inner,
                      const ResilConfig &config = {},
                      HostEmbeddingCache *host_cache = nullptr);

    /**
     * Liveness probe per device (e.g. "NVMe controller not dead").
     * Unset = every device presumed alive until health ejects it.
     */
    void
    setDeviceProbe(std::function<bool(unsigned)> probe)
    {
        probe_ = std::move(probe);
    }

    /**
     * Device `dev` died: the sub-ops in flight on it will never
     * answer. Resolve each that no deadline, pending hedge or other
     * in-flight issue will: fail it over, or degrade it.
     */
    void deviceDied(unsigned dev);

    /** SlsBackend interface; drops the degraded flag. */
    void run(const SlsOp &op, Done done) override;
    std::string name() const override;

    /** The full-fidelity entry point the serving path uses. */
    void runEx(const SlsOp &op, DoneEx done);

    /** @{ Per-shard service accounting (sub-op issue -> completion). */
    const LatencyRecorder &shardLatency(unsigned shard) const
    {
        return shardLatency_.at(shard);
    }
    std::uint64_t subOpsOn(unsigned shard) const
    {
        return shardLatency_.at(shard).count();
    }
    /** Ops that fanned out to more than one shard. */
    std::uint64_t scatteredOps() const { return scatteredOps_; }
    /** @} */

    /** @{ Resilience accounting. Conservation invariants (no dead
     *  devices): issues == completions and
     *  completions == servedSubs + duplicateCompletions. */
    std::uint64_t issuesTotal() const { return issuesTotal_; }
    std::uint64_t completionsTotal() const { return completionsTotal_; }
    std::uint64_t servedSubs() const { return servedSubs_; }
    std::uint64_t hedgesFired() const { return hedgesFired_; }
    std::uint64_t hedgeWins() const { return hedgeWins_; }
    std::uint64_t duplicateCompletions() const
    {
        return duplicateCompletions_;
    }
    std::uint64_t deadlineMisses() const { return deadlineMisses_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t degradedFills() const { return degradedFills_; }
    std::uint64_t lateCompletionsOn(unsigned shard) const
    {
        return lateCompletions_.at(shard);
    }
    /** @} */

    /** Devices failing the probe or inside an ejection window now. */
    std::vector<unsigned> unhealthyDevices() const;

  private:
    struct Gather;
    struct Sub;

    /** Healthy = passes the probe and not ejected. */
    bool healthy(unsigned dev) const;

    /** Issue a sub-op to its next untried healthy candidate (arming a
     *  hedge timer when more remain), or degrade it at a dead end. */
    void issueSub(const std::shared_ptr<Gather> &op,
                  const std::shared_ptr<Sub> &sub);

    /** Serve a sub from host cache/zeros; marks the op degraded. */
    void degradeSub(Gather &op, Sub &sub);

    /** Deliver the op (reduce cost + gather span unless immediate). */
    void finishOp(const std::shared_ptr<Gather> &op, bool immediate);

    EventQueue &eq_;
    HostCpu &cpu_;
    ShardRouter &router_;
    std::vector<SlsBackend *> inner_;
    ResilConfig config_;
    HostEmbeddingCache *hostCache_;
    std::function<bool(unsigned)> probe_;
    HedgePolicy hedge_;
    HealthTracker health_;

    /** Issues in flight per device, keyed by issue number, so a
     *  device's death finds the ones it swallowed, in issue order. */
    struct Issue
    {
        std::shared_ptr<Gather> op;
        std::shared_ptr<Sub> sub;
    };
    std::vector<std::map<std::uint64_t, Issue>> inflight_;

    std::vector<LatencyRecorder> shardLatency_;
    std::vector<std::uint64_t> lateCompletions_;
    /** Replica rotation counter (read balancing; no randomness). */
    std::uint64_t rr_ = 0;
    std::uint64_t scatteredOps_ = 0;
    std::uint64_t issuesTotal_ = 0;
    std::uint64_t completionsTotal_ = 0;
    std::uint64_t servedSubs_ = 0;
    std::uint64_t hedgesFired_ = 0;
    std::uint64_t hedgeWins_ = 0;
    std::uint64_t duplicateCompletions_ = 0;
    std::uint64_t deadlineMisses_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t degradedFills_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_SHARD_SHARDED_BACKEND_H
