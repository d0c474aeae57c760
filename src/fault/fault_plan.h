/**
 * @file
 * Seeded, deterministic device-fault scenarios.
 *
 * RecSSD's value proposition is meeting tail-latency SLAs, so the
 * simulator must model a fleet that misbehaves, not just a healthy
 * one. A `FaultPlan` is a list of per-device scenarios parsed from a
 * compact spec (inline string or file) and applied to a
 * `SystemConfig` via per-device overrides; a per-device
 * `FaultInjector` (owned by `Ssd`) arms them on the event queue.
 *
 * Scenario kinds:
 *  - `DieStall`     a die (or a randomly drawn one) goes busy for a
 *                   window — pending reads queue behind it (models a
 *                   die-level retry storm / program-suspend conflict).
 *  - `FirmwarePause` the FTL CPU is occupied for a window (firmware
 *                   housekeeping: log checkpointing, wear tables).
 *  - `ReadInflation` every array read started inside the window takes
 *                   `factor`x its nominal tR (sustained media
 *                   degradation / thermal throttling).
 *  - `DeviceDropout` at the scheduled tick the NVMe controller stops
 *                   fetching and completing commands, permanently —
 *                   the device is gone; in-flight commands never
 *                   complete.
 *
 * Determinism: the only randomness (die/channel draws for `ch=-1` /
 * `die=-1`, period jitter) comes from a seeded `recssd::Rng`, drawn in
 * a fixed order, so the full firing schedule is a pure function of the
 * config (sim-lint R1 clean).
 */

#ifndef RECSSD_FAULT_FAULT_PLAN_H
#define RECSSD_FAULT_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace recssd
{

enum class FaultKind
{
    DieStall,       ///< one die busy for `duration`
    FirmwarePause,  ///< FTL CPU busy for `duration`
    ReadInflation,  ///< array reads take `factor`x inside the window
    DeviceDropout,  ///< controller dead from `at` onward
};

/** Stable short name used in stats, traces and reports. */
const char *faultKindName(FaultKind kind);

/** One injected misbehavior on one device. */
struct FaultScenario
{
    FaultKind kind = FaultKind::DieStall;
    /** Target device (index into the shard set). */
    unsigned device = 0;
    /** First occurrence. */
    Tick at = 0;
    /** Stall/pause/window length (ignored for DeviceDropout). */
    Tick duration = 0;
    /** ReadInflation latency multiplier. */
    double factor = 2.0;
    /** DieStall target; -1 draws uniformly per occurrence. */
    int channel = -1;
    int die = -1;
    /** Occurrences (each `period` apart). */
    unsigned count = 1;
    Tick period = 0;
    /** Uniform [0, jitter) added to each occurrence start. */
    Tick jitter = 0;
};

/** The fault slice of one device's `SsdConfig`. */
struct DeviceFaultConfig
{
    std::vector<FaultScenario> scenarios;
    /** Seed of the injector's Rng (die draws, jitter). */
    std::uint64_t seed = 0xFA017;

    bool empty() const { return scenarios.empty(); }
};

/**
 * A full system's fault schedule.
 *
 * Spec grammar (inline form, `;`-separated; file form, one scenario
 * per line with `#` comments):
 *
 *   scenario := kind '@' device [':' key '=' value (',' key '=' value)*]
 *   kind     := 'stall' | 'fwpause' | 'inflate' | 'dropout'
 *   keys     := at, dur, period, jitter (times: <float><ns|us|ms|s>),
 *               factor (finite real), ch, die (count, or -1 =
 *               random), count (count)
 *   plus a standalone 'seed=N' element setting the plan seed.
 *   device and N are counts too: decimal digits only (parseCount).
 *   With count > 1, jitter <= period (starts stay in order), and the
 *   last start, at + (count-1)*period + jitter, must fit a Tick.
 *
 * Example:
 *   stall@1:at=2ms,dur=3ms,period=8ms,count=20;dropout@3:at=50ms
 */
struct FaultPlan
{
    std::vector<FaultScenario> scenarios;
    std::uint64_t seed = 0xFA017;

    /** Parse an inline spec. Panics (with the offending token) on a
     *  malformed spec. */
    static FaultPlan parse(const std::string &spec);

    /** Parse a spec file (one scenario per line, `#` comments). */
    static FaultPlan parseFile(const std::string &path);

    /** File if `spec` names a readable file, else inline. */
    static FaultPlan load(const std::string &spec);

    /** Scenarios targeting device `d`, in plan order. */
    std::vector<FaultScenario> forDevice(unsigned d) const;

    /** Largest device index any scenario targets (0 when empty). */
    unsigned maxDevice() const;
};

}  // namespace recssd

#endif  // RECSSD_FAULT_FAULT_PLAN_H
