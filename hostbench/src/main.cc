/**
 * @file
 * hostbench: host-time benchmark of the recssd simulator.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * --trace 0 repeats the workload's serve run (same seed, same inputs)
 * for S seconds of host time and prints the end-to-end metrics; every
 * repeat must produce the same simulated-stats digest. --trace 1 runs
 * the workload once with host-time spans recorded, then the per-layer
 * ladder, and prints the per-layer metrics; the spans are written to
 * DIR/spans-<workload>-<seed>.jsonl at exit. The last line of stdout
 * is the JSON result; the exit code is non-zero when a correctness
 * check fails.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/src/host_clock.h"
#include "hostbench/src/ladder.h"
#include "hostbench/src/oracle.h"
#include "hostbench/src/report.h"
#include "hostbench/src/spans.h"
#include "hostbench/src/workloads.h"

using namespace hostbench;

namespace
{

#if defined(__OPTIMIZE__)
constexpr bool optimizedBuild = true;
#else
constexpr bool optimizedBuild = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool sanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool sanitizedBuild = true;
#else
constexpr bool sanitizedBuild = false;
#endif
#else
constexpr bool sanitizedBuild = false;
#endif

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

/** Extra set-up samples: at least this many, within this host time. */
constexpr std::size_t minSetupSamples = 101;
constexpr std::int64_t setupBudgetNs = 1'000'000'000;
/** An untraced run visits at least this many CPUs (when allowed). */
constexpr std::size_t minRepsPerCpuCycle = 4;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\nworkloads:",
                 argv0);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::uint64_t
failedQueries(const RepResult &r)
{
    return (r.measured - std::min(r.measured, r.completed)) + r.degraded;
}

int
emit(const std::vector<MetricDef> &catalog, const MetricValues &values,
     bool correct, std::uint64_t attempted, std::uint64_t failed)
{
    std::string line;
    std::string err =
        formatResult(catalog, values, correct, attempted, failed, line);
    if (!err.empty()) {
        std::fprintf(stderr, "hostbench: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

void
printRep(const char *what, std::size_t i, const RepResult &r)
{
    std::printf("%s %zu: digest %s setup %.6fs serve %.6fs (%llu queries, "
                "%llu events)\n",
                what, i, hexDigest(r.digest).c_str(), r.setupNs * 1e-9,
                r.serveNs * 1e-9,
                static_cast<unsigned long long>(r.submitted),
                static_cast<unsigned long long>(r.events));
}

/** Print what the oracle checked; false on any mismatch. */
bool
printOracle(const char *where, const OracleTally &t)
{
    std::printf("%s: %llu SLS ops checked against DRAM, %llu mismatches, "
                "%llu rows held updated values\n",
                where, static_cast<unsigned long long>(t.checked),
                static_cast<unsigned long long>(t.mismatches),
                static_cast<unsigned long long>(t.updatedRows));
    if (t.mismatches > 0)
        std::printf("FAIL: SLS results differ from the DRAM oracle\n");
    return t.mismatches == 0;
}

/** CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Restrict this process to `cpus` (all of them when it has several). */
void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

int
runEndToEnd(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
            const std::string &artifact_dir)
{
    bool correct = true;
    RepResult first;
    std::size_t reps = 0;
    std::vector<double> host_qps;
    std::vector<double> setups;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Each repeat (and set-up sample) runs on the next allowed CPU in
    // turn. On a shared host, how much a repeat is slowed depends on
    // the core it runs on (its neighbours' cache and memory traffic),
    // and an unpinned run tends to stay on one core; rotating lets
    // every run sample every core, so its median does not hang on the
    // neighbours of one core.
    const std::vector<int> cpus = allowedCpus();
    const std::int64_t start = hostNowNs();
    do {
        if (!cpus.empty())
            pinTo({cpus[reps % cpus.size()]});
        RepResult r = runRep(spec, seed, false, artifact_dir, nullptr,
                             noSpan, reps + 1);
        printRep("rep", reps, r);
        if (reps > 0 && r.digest != first.digest) {
            std::printf("FAIL: same-seed reps disagree\n");
            correct = false;
        }
        attempted += r.submitted;
        failed += failedQueries(r);
        host_qps.push_back(static_cast<double>(r.submitted) /
                           (r.serveNs * 1e-9));
        setups.push_back(r.setupNs * 1e-9);
        if (reps++ == 0)
            first = std::move(r);
    } while ((hostNowNs() - start) * 1e-9 < seconds ||
             (reps < cpus.size() && reps < minRepsPerCpuCycle));

    const std::int64_t setup_start = hostNowNs();
    while (setups.size() < minSetupSamples &&
           hostNowNs() - setup_start < setupBudgetNs) {
        if (!cpus.empty())
            pinTo({cpus[setups.size() % cpus.size()]});
        setups.push_back(setupOnlyNs(spec, seed) * 1e-9);
    }
    if (!cpus.empty())
        pinTo(cpus);

    // One more repeat, untimed, whose served machine the DRAM oracle
    // checks. Peak RSS is read first: the oracle's own trace
    // generators and results are not the simulator's memory.
    const double peak_rss_mb = peakRssMb();
    OracleTally oracle;
    RepResult checked = runRep(spec, seed, false, artifact_dir, nullptr,
                               noSpan, reps + 1, &oracle);
    printRep("checked rep", reps, checked);
    if (checked.digest != first.digest) {
        std::printf("FAIL: same-seed reps disagree\n");
        correct = false;
    }
    attempted += checked.submitted;
    failed += failedQueries(checked);
    if (!printOracle("oracle after the checked rep's serve", oracle))
        correct = false;
    if (failed > 0) {
        std::printf("FAIL: %llu failed or degraded queries\n",
                    static_cast<unsigned long long>(failed));
        correct = false;
    }
    std::printf("digest: %s (%zu reps, %zu set-up samples)\n",
                hexDigest(first.digest).c_str(), reps, setups.size());
    std::printf("samples: %llu measured queries behind sim_p50_us and "
                "sim_p95_us\n",
                static_cast<unsigned long long>(first.simSamples));

    MetricValues v;
    v["host_qps"] = median(host_qps);
    v["setup_s"] = median(setups);
    v["peak_rss_mb"] = peak_rss_mb;
    v["sim_p50_us"] = first.simP50Us;
    v["sim_p95_us"] = first.simP95Us;
    v["sim_qps"] = first.simQps;
    return emit(endToEndMetrics(), v, correct, attempted, failed);
}

int
runTraced(const WorkloadSpec &spec, std::uint64_t seed,
          const std::string &out_dir, const std::string &artifact_dir)
{
    bool correct = true;
    SpanRecorder rec;
    SpanIndex root = rec.open("run");
    OracleTally served;
    RepResult rep =
        runRep(spec, seed, false, artifact_dir, &rec, root, 1, &served);
    printRep("traced rep", 0, rep);
    RepResult obs_rep;
    const RepResult *obs = nullptr;
    if (spec.measuresObs) {
        // The observability path must not perturb the simulation: its
        // digest equals the untraced serve of the same inputs.
        obs_rep = runRep(spec, seed, true, artifact_dir, &rec, root, 2);
        printRep("observability rep", 0, obs_rep);
        if (obs_rep.digest != rep.digest) {
            std::printf("FAIL: observability changed the simulation\n");
            correct = false;
        }
        obs = &obs_rep;
    }
    LadderResult ladder = runLadder(spec, seed, &rec, root);
    rec.close(root);
    std::printf("ladder: kernel %.1f ns/event at depth %.1f\n",
                ladder.kernelNsPerEvent, ladder.pendingDepth);
    if (!printOracle("oracle after the traced serve", served) ||
        !printOracle("oracle on the ladder's rungs", ladder.oracle))
        correct = false;
    const std::uint64_t failed = failedQueries(rep);
    if (failed > 0)
        correct = false;

    namespace fs = std::filesystem;
    fs::create_directories(out_dir);
    const fs::path span_path = fs::path(out_dir) /
                               ("spans-" + spec.name + "-" +
                                std::to_string(seed) + ".jsonl");
    {
        std::ofstream os(span_path);
        rec.writeJsonl(os);
    }
    std::printf("spans: %zu -> %s\n", rec.spans().size(),
                span_path.string().c_str());

    MetricValues v = layerMetrics(spec, rep, obs, ladder, failed);
    return emit(perLayerMetrics(), v, correct, rep.submitted, failed);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string out_dir = ".bench_out";
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = value();
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::atoll(value());
        else if (!std::strcmp(argv[i], "--seconds"))
            seconds = std::atof(value());
        else if (!std::strcmp(argv[i], "--trace"))
            trace = std::atoi(value());
        else if (!std::strcmp(argv[i], "--out-dir"))
            out_dir = value();
        else
            usage(argv[0]);
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage(argv[0]);

    // Host numbers from an audited, unoptimised or sanitized build say
    // nothing about the simulator's speed: refuse to produce them.
    if (std::getenv("RECSSD_AUDIT") != nullptr) {
        std::fprintf(stderr, "hostbench: RECSSD_AUDIT is set; its invariant "
                             "checks cost host time. Unset it.\n");
        return 3;
    }
    if (!optimizedBuild || sanitizedBuild) {
        std::fprintf(stderr, "hostbench: refusing to time an %s build\n",
                     sanitizedBuild ? "instrumented" : "unoptimised");
        return 3;
    }

    std::printf("record: workload %s seed %lld trace %d nproc %u build %s "
                "calibration %.4f ns/iter loadavg \"%s\"\n",
                spec->name.c_str(), seed, trace,
                std::thread::hardware_concurrency(), HOSTBENCH_BUILD_TYPE,
                calibrationNsPerIter(), loadAverage().c_str());
    const std::string artifact_dir =
        (std::filesystem::path(out_dir) /
         ("obs-" + spec->name + "-" + std::to_string(seed)))
            .string();
    const auto useed = static_cast<std::uint64_t>(seed);
    return trace ? runTraced(*spec, useed, out_dir, artifact_dir)
                 : runEndToEnd(*spec, useed, seconds, artifact_dir);
}
