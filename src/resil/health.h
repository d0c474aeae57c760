/**
 * @file
 * Per-device health tracking for the scatter-gather serving path.
 *
 * A device that keeps timing out (its hedge timer fires before its
 * completion arrives, `ejectAfterFailures` times in a row) is ejected
 * for a cooldown window: the router stops issuing to it and replicas
 * absorb its share. The ejection is time-bounded (a half-open circuit
 * breaker) — once the cooldown expires the device is retried, so a
 * healthy device that merely backed up its queue wins its traffic
 * back, while a dead device immediately times out again and re-ejects.
 * Any successful completion restores the device on the spot. Devices
 * that fail the backend's liveness probe are excluded independently
 * of this tracker.
 */

#ifndef RECSSD_RESIL_HEALTH_H
#define RECSSD_RESIL_HEALTH_H

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace recssd
{

class HealthTracker
{
  public:
    HealthTracker(unsigned devices, unsigned eject_after, Tick cooldown)
        : ejectAfter_(eject_after), cooldown_(cooldown),
          streak_(devices, 0), ejectedUntil_(devices, 0)
    {
    }

    void
    recordSuccess(unsigned dev)
    {
        streak_[dev] = 0;
        if (ejectedUntil_[dev] > 0) {
            ejectedUntil_[dev] = 0;
            ++restorations_;
        }
    }

    void
    recordTimeout(unsigned dev, Tick now)
    {
        if (++streak_[dev] >= ejectAfter_) {
            if (ejectedUntil_[dev] <= now)
                ++ejections_;
            ejectedUntil_[dev] = now + cooldown_;
            streak_[dev] = 0;  // re-earn the threshold after retry
        }
    }

    /** Inside an active ejection window at sim time `now`? */
    bool
    ejected(unsigned dev, Tick now) const
    {
        return ejectedUntil_[dev] > now;
    }

    std::uint64_t ejections() const { return ejections_; }
    std::uint64_t restorations() const { return restorations_; }

    /** Devices inside an ejection window at `now`, ascending. */
    std::vector<unsigned>
    ejectedDevices(Tick now) const
    {
        std::vector<unsigned> out;
        for (unsigned d = 0; d < ejectedUntil_.size(); ++d)
            if (ejected(d, now))
                out.push_back(d);
        return out;
    }

  private:
    unsigned ejectAfter_;
    Tick cooldown_;
    std::vector<unsigned> streak_;
    std::vector<Tick> ejectedUntil_;
    std::uint64_t ejections_ = 0;
    std::uint64_t restorations_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_RESIL_HEALTH_H
