/**
 * @file
 * Per-device fault injector.
 *
 * Owned by `Ssd` (constructed only when the device's
 * `DeviceFaultConfig` is non-empty, so fault-free configs carry zero
 * overhead). `arm()` schedules each scenario as one lazy series that
 * draws every occurrence — its jitter and, for `ch=-1`/`die=-1`, its
 * die — from a seeded `Rng` in a fixed order as its predecessor fires,
 * so two runs of the same config fire identically.
 *
 * Each firing bumps a counter (exported as `ssdN.fault.*`) and, when
 * tracing is on, drops a span on the device's `<prefix>fault` track so
 * injected misbehavior is visible right next to the flash/FTL/NVMe
 * spans it perturbs.
 */

#ifndef RECSSD_FAULT_FAULT_INJECTOR_H
#define RECSSD_FAULT_FAULT_INJECTOR_H

#include <string>

#include "src/common/event_queue.h"
#include "src/common/stats.h"
#include "src/fault/fault_plan.h"
#include "src/flash/flash_array.h"
#include "src/ftl/ftl.h"
#include "src/nvme/host_controller.h"

namespace recssd
{

class FaultInjector
{
  public:
    FaultInjector(EventQueue &eq, const DeviceFaultConfig &cfg,
                  FlashArray &flash, Ftl &ftl, HostController &ctrl,
                  const std::string &track_prefix = "");

    /**
     * Schedule every occurrence. Call once, before the simulation
     * starts (System's constructor does).
     */
    void arm();

    /** @{ Stats: occurrences actually fired so far. */
    std::uint64_t dieStalls() const { return dieStalls_.value(); }
    std::uint64_t firmwarePauses() const { return fwPauses_.value(); }
    std::uint64_t inflationWindows() const { return inflations_.value(); }
    std::uint64_t dropouts() const { return dropouts_.value(); }
    /** @} */

  private:
    void fire(const FaultScenario &s, unsigned ch, unsigned die);

    /** Window span on the fault track (fixed extent, known at fire). */
    void traceWindow(const char *name, Tick duration);

    EventQueue &eq_;
    DeviceFaultConfig cfg_;
    FlashArray &flash_;
    Ftl &ftl_;
    HostController &ctrl_;
    std::string trackName_;

    Counter dieStalls_;
    Counter fwPauses_;
    Counter inflations_;
    Counter dropouts_;
};

}  // namespace recssd

#endif  // RECSSD_FAULT_FAULT_INJECTOR_H
