// sim-lint: file-allow(R1) the benchmark's only host-clock reads: host time is what it measures and never reaches a simulated artifact

#include "hostbench/src/host_clock.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <vector>

namespace hostbench
{

std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
calibrationNsPerIter()
{
    constexpr std::uint64_t iters = 2'000'000;
    std::vector<double> passes;
    volatile std::uint64_t sink = 0;
    for (int pass = 0; pass < 5; ++pass) {
        std::uint64_t x = 0x9E3779B97F4A7C15ull + sink;
        std::int64_t start = hostNowNs();
        for (std::uint64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::int64_t stop = hostNowNs();
        sink = x;
        passes.push_back(static_cast<double>(stop - start) /
                         static_cast<double>(iters));
    }
    std::sort(passes.begin(), passes.end());
    return passes[passes.size() / 2];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string line;
    std::getline(in, line);
    return line;
}

}  // namespace hostbench
