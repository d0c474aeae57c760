/**
 * @file
 * Online-update serving driver: batched, replica-converging row
 * writes racing the read path.
 *
 * The write-path sibling of `BatchScheduler`: row updates from the
 * seeded `UpdateStream` coalesce into flushed batches (size cap +
 * flush timeout + in-flight cap), and every flushed row fans out
 * through the `ShardRouter` to its primary slice and all replica
 * copies, so replicated serving stays bit-exact through failover
 * after an update. Writes go through `updateRow`, competing for NVMe
 * queues with the serve traffic on each device; each flush is its own
 * trace request ("update"), so update phases appear in blame and
 * utilization output alongside queries.
 *
 * Dead devices (fault-plan dropouts swallow their commands) are
 * probed before each write and skipped — counted, not hung.
 */

#ifndef RECSSD_RECO_UPDATE_FLUSHER_H
#define RECSSD_RECO_UPDATE_FLUSHER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/cache/host_embedding_cache.h"
#include "src/core/system.h"
#include "src/embedding/embedding_table.h"
#include "src/load/latency_recorder.h"
#include "src/load/update_stream.h"

namespace recssd
{

class UpdateFlusher
{
  public:
    /**
     * @param tables Global descriptors of the SSD-resident tables
     *        (`ModelRunner::ssdTableDescs()`), indexed by the stream's
     *        `UpdateDesc::tableIdx`.
     * @param seed Serve seed; combined with `spec.seed` so the stream
     *        is independent of the query-arrival Rng.
     * @param host_cache The runner's host LRU, if any; every applied
     *        row update refreshes it (see `updateRow`).
     */
    UpdateFlusher(System &sys, std::vector<EmbeddingTableDesc> tables,
                  const UpdateStreamSpec &spec, std::uint64_t seed,
                  HostEmbeddingCache *host_cache = nullptr);

    /**
     * Schedule a submit at the arrival tick of every update the stream
     * generates up to `horizon`, as one lazy series
     * (`EventQueue::scheduleSeries`) that draws each update as its
     * predecessor fires. Each call schedules one more stream.
     */
    void scheduleUntil(Tick horizon);

    /** Enqueue one row update now (normally via scheduleUntil). */
    void submit(const UpdateDesc &update);

    /**
     * QoS admission hook: called once per flush with the current tick;
     * charges the owning tenant's budget and returns the earliest tick
     * the flush may dispatch. A future tick holds the flush (and the
     * whole queue behind it) until the charge matures, so update
     * traffic drains the same limit budget as the tenant's reads.
     * Unset (the default) admits every flush immediately.
     */
    using AdmissionHook = std::function<Tick(Tick now)>;
    void setAdmission(AdmissionHook hook) { admission_ = std::move(hook); }

    /** Flushes held back by the admission hook. */
    std::uint64_t admissionDeferrals() const { return deferrals_; }

    /** @{ Stream accounting. */
    std::uint64_t submitted() const { return submitted_; }
    /** Row updates whose flush completed on every live target. */
    std::uint64_t applied() const { return applied_; }
    /** Page writes issued, counting each replica copy. */
    std::uint64_t replicaWrites() const { return replicaWrites_; }
    std::uint64_t flushes() const { return flushes_; }
    /** Writes skipped because the target device was dead. */
    std::uint64_t skippedDeadDevice() const { return skippedDead_; }
    /** Flush latency (dispatch to last replica write completion). */
    const LatencyRecorder &flushLatency() const { return flushLatency_; }
    /** @} */

  private:
    void maybeDispatch(bool timer_fired);
    void dispatchOne();
    void armTimer();

    System &sys_;
    std::vector<EmbeddingTableDesc> tables_;
    UpdateStreamSpec spec_;
    HostEmbeddingCache *hostCache_;

    std::deque<UpdateDesc> pending_;
    unsigned inFlight_ = 0;
    bool timerArmed_ = false;
    std::uint64_t timerGen_ = 0;

    /** @{ QoS admission state: `admitted_` holds one matured charge;
     *  `admissionWait_` marks a scheduled maturity wakeup. */
    AdmissionHook admission_;
    bool admitted_ = false;
    bool admissionWait_ = false;
    std::uint64_t deferrals_ = 0;
    /** @} */

    /** Committed update count per (tableIdx, row): the version the
     *  deterministic payload (`synthetic::updatedVector`) encodes. */
    std::map<std::pair<std::uint32_t, RowId>, std::uint64_t> versions_;

    std::uint64_t submitted_ = 0;
    std::uint64_t applied_ = 0;
    std::uint64_t replicaWrites_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t skippedDead_ = 0;
    LatencyRecorder flushLatency_;
};

}  // namespace recssd

#endif  // RECSSD_RECO_UPDATE_FLUSHER_H
