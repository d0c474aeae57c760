/**
 * @file
 * Host-side measurements of the simulator process: the monotonic host
 * clock, a fixed calibration loop, peak resident memory and the load
 * average. Everything else in the benchmark reads simulated time only;
 * this header is the single door to the host's clock.
 */

#ifndef HOSTBENCH_HOST_CLOCK_H
#define HOSTBENCH_HOST_CLOCK_H

#include <cstdint>
#include <string>

namespace hostbench
{

/** Monotonic host time in nanoseconds (arbitrary epoch). */
std::int64_t hostNowNs();

/**
 * Host nanoseconds per iteration of a fixed integer-mixing loop,
 * median of several short passes. A reading that drifts between runs
 * shows a noisy or throttled host; it is recorded, never gated.
 */
double calibrationNsPerIter();

/** getrusage maximum resident set size of this process, in MB. */
double peakRssMb();

/** First line of /proc/loadavg ("" when unavailable). */
std::string loadAverage();

}  // namespace hostbench

#endif  // HOSTBENCH_HOST_CLOCK_H
