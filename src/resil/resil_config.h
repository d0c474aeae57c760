/**
 * @file
 * Tail-tolerance knobs for the serving path.
 *
 * A `ResilConfig` configures the scatter-gather backend
 * (`ShardedSlsBackend`, src/shard): per-op deadlines with a degraded
 * answer path, hedged sub-ops against replicas, and health tracking
 * that ejects repeatedly-timing-out devices. All defaults are "off":
 * a default config plus replication=1 times exactly like a plain
 * scatter-gather fan-out.
 */

#ifndef RECSSD_RESIL_RESIL_CONFIG_H
#define RECSSD_RESIL_RESIL_CONFIG_H

#include <cstddef>

#include "src/common/types.h"

namespace recssd
{

enum class HedgeMode
{
    Off,    ///< never re-issue
    Fixed,  ///< re-issue after a fixed delay
    Auto,   ///< re-issue after multiplier x observed pXX sub-op latency
};

/** When and whether to re-issue a slow sub-op to a replica. */
struct HedgeConfig
{
    HedgeMode mode = HedgeMode::Off;
    /** Fixed-mode delay; Auto falls back to it until warmed up. */
    Tick fixedDelay = 2 * msec;
    /** Auto: hedge when a sub-op exceeds multiplier x pXX. */
    double quantile = 0.95;
    double multiplier = 1.0;
    /** Auto: completions observed before trusting the quantile. */
    std::size_t minSamples = 32;
    /** Auto: floor, so a fast warm-up can't hedge everything. */
    Tick minDelay = 50 * usec;
};

struct ResilConfig
{
    /**
     * Per-op deadline (0 = none). A missed deadline delivers whatever
     * partials arrived, degrades the rest (host cache / zero fill),
     * and flags the answer degraded.
     */
    Tick deadline = 0;

    HedgeConfig hedge;

    /** Consecutive hedge timeouts before a device is ejected. */
    unsigned ejectAfterFailures = 3;

    /** How long an ejection lasts before the device is retried
     *  (half-open circuit breaker): a slow device wins its traffic
     *  back, a dead one just re-ejects on the next timeout streak. */
    Tick ejectCooldown = 10 * msec;

    /** Anything to do beyond plain scatter-gather? */
    bool
    active() const
    {
        return deadline > 0 || hedge.mode != HedgeMode::Off;
    }
};

}  // namespace recssd

#endif  // RECSSD_RESIL_RESIL_CONFIG_H
