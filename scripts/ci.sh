#!/usr/bin/env bash
# Tier-1 CI gate. Stages:
#   0  static analysis — sim-lint (self-test incl. the R5-R8 protocol
#      fixtures and tree-mutation checks, then a tree scan over src/
#      tools/ bench/ that also writes build/sim_lint.json and emits
#      GitHub annotations under GITHUB_ACTIONS) and clang-tidy over
#      the exported compile database (result cached per content hash —
#      an unchanged tree skips the re-run); the advisory clang-format
#      diff check rides along. RECSSD_SKIP_TIDY=1 skips the clang-tidy
#      leg (hosts without LLVM); sim-lint always runs (python3 only).
#   1  ctest -L quick — the sub-second unit suites, fails fast on
#      broken plumbing.
#   2  full tier-1 suite.
#   3  sharding matrix — ctest -L shard plus recssd_sim smoke runs at
#      --num-ssds 1 and 4, then the fault matrix: a device dropout
#      survived via replication + hedging, a stall/fwpause plan
#      served through a deadline (degraded answers, not hangs), and a
#      dropout with no resilience flags that must complete and report
#      its degraded queries on the `resilience:` line.
#   4  layout matrix — ctest -L layout (the frequency-aware placement
#      property/differential lockdown) plus recssd_sim smoke runs under
#      --layout-policy freq.
#   5  mixed read-write matrix — ctest -L updates2 (the write-path /
#      read-after-write consistency lockdown, including the torn-sum
#      death test) plus recssd_sim smokes with a live update stream at
#      1 and 4 SSDs and one faulted mixed-RW leg; RECSSD_AUDIT keeps
#      the torn-gather invariant armed throughout.
#   5q multi-tenant QoS matrix — ctest -L qos (dmClock invariants,
#      tenant-spec grammar, zero-tenant byte-identity) plus --tenants
#      smokes: the victim/antagonist pair under dmclock and under the
#      fifo A/B baseline, and a 4-tenant / 2-model mix whose fourth
#      tenant runs a mixed read-write stream throttled by its own QoS
#      limit budget.
#   6  reproducibility audit — scripts/audit_repro.sh runs seeded
#      configs twice in separate processes with RECSSD_AUDIT=1 and
#      byte-diffs stats/metrics/trace/stdout.
#   7  observability + perf-regression gate — ctest -L obs2 (blame /
#      utilization / SLO suites, with RECSSD_AUDIT asserting the
#      critical-path partition and Little's-law invariants), the
#      bench_baseline.py comparator self-test (proves the gate detects
#      drift), then the gate proper over the seeded configs in
#      bench/baselines/. All gated metrics are simulated-time, so they
#      are exact on any host; a regression here means the change moved
#      simulated performance, not the machine.
#   7h host-time benchmark — configures hostbench/ (its own CMake
#      package, RelWithDebInfo) into build-hostbench, builds hostbench
#      and hostbench_tests, runs their ctest, then a 1 s `--trace 0`
#      smoke of every BENCHMARK.json workload, each of which must exit
#      0 (digests agree across repeats, the DRAM oracle passes). It
#      links the library's public API, which the main build never
#      exercises from outside.
#   8  quick + shard + layout + obs2 + updates2 + qos + fuzz suites
#      again under ASan+UBSan in a separate build tree (the 4-device,
#      freq-layout, mixed-RW and 2-tenant QoS smokes, the
#      no-resilience dropout smoke and two bench-gate configs ride the
#      sanitizer leg too). ctest -L fuzz is tools/cli_fuzz.py: the
#      recssd_sim usage text must match its committed golden, and
#      every bad number, unknown choice word, missing value and
#      unknown flag, at a seeded spot in a valid argv, must exit 2;
#      under the sanitizers that also proves the rejection paths
#      clean. Stage 2 runs it once in the main build.
#      RECSSD_SKIP_SANITIZERS=1 skips this stage (hosts without ASan).
# Opt-in, not part of the default run: `scripts/ci.sh --coverage`
# builds the tree at -O0 --coverage into build-coverage, runs the full
# ctest there, and lists every src/ function that never ran, read from
# plain gcov (no lcov). Its output goes to stdout only.
# The main build is configured with -DRECSSD_WERROR=ON: the tier-1
# tree must compile warning-clean under -Wall -Wextra -Werror.
# Pass a generator via CMAKE_GENERATOR if you want Ninja; the default
# works everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--coverage" ]]; then
    echo "=== coverage leg: src/ functions no ctest runs (-O0 --coverage) ==="
    cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-O0 --coverage" \
        -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build build-coverage -j "$(nproc)"
    find build-coverage -name '*.gcda' -delete
    # A failing test still leaves its counts; report the failure, then
    # list what ran.
    ctest --test-dir build-coverage --output-on-failure -j "$(nproc)" ||
        echo "coverage leg: some tests failed (counts kept)"
    # A function (one source line) counts as run if any translation
    # unit that emitted it ran any instantiation of it: an inline
    # function has counters in every including unit, test units too,
    # and the linker keeps only one unit's copy.
    (cd build-coverage && find . -name '*.gcda' -print0 |
        xargs -0 gcov --json-format --stdout) |
        python3 -c '
import json, os, sys
root = os.getcwd() + "/src/"
runs, names = {}, {}
for line in sys.stdin:
    for f in json.loads(line)["files"]:
        path = os.path.normpath(os.path.join(root, "..", f["file"]))
        if not path.startswith(root):
            continue
        for fn in f["functions"]:
            key = (path[len(root) - 4:], fn["start_line"])
            runs[key] = runs.get(key, 0) + fn["execution_count"]
            names[key] = min(names.get(key, fn["demangled_name"]),
                             fn["demangled_name"], key=len)
never = sorted(k for k, n in runs.items() if n == 0)
for path, line in never:
    print(f"{path}:{line}: {names[path, line]}")
print(f"coverage leg: {len(never)} of {len(runs)} src/ functions never ran")
'
    exit 0
fi

cmake -B build -S . -DRECSSD_WERROR=ON

echo
echo "=== stage 0: static analysis (sim-lint + clang-tidy) ==="
python3 tools/sim_lint.py --self-test
# Tree scan: machine-readable report for dashboards/artifacts, plus
# inline ::error annotations when running inside GitHub Actions.
lint_fmt=text
[[ -n "${GITHUB_ACTIONS:-}" ]] && lint_fmt=github
python3 tools/sim_lint.py --format "${lint_fmt}" \
    --json-out build/sim_lint.json
if [[ "${RECSSD_SKIP_TIDY:-0}" != "1" ]]; then
    ./scripts/run_clang_tidy.sh build
else
    echo "RECSSD_SKIP_TIDY=1: skipping clang-tidy"
fi
./scripts/check_format.sh || true

cmake --build build -j "$(nproc)"

echo
echo "=== stage 1: quick unit suites (ctest -L quick) ==="
ctest --test-dir build -L quick --output-on-failure -j

echo
echo "=== stage 2: full tier-1 suite ==="
ctest --test-dir build --output-on-failure -j

echo
echo "=== stage 3: sharding matrix (ctest -L shard + sim smoke) ==="
ctest --test-dir build -L shard --output-on-failure -j
./build/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
    --num-ssds 1 --queries 40 --qps 500 > /dev/null
./build/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
    --num-ssds 4 --shard-policy hash --queries 40 --qps 500 > /dev/null
./build/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
    --num-ssds 4 --shard-policy range --queries 40 --qps 500 > /dev/null
# Fault matrix (sustainable load: faulted tails are only meaningful
# when the healthy system isn't already saturated).
./build/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
    --num-ssds 4 --shard-policy range --replication 2 --batch 4 \
    --fault-plan 'dropout@3:at=50ms' --hedge-delay-us auto \
    --deadline-us 50000 --queries 30 --qps 20 > /dev/null
./build/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
    --num-ssds 4 --shard-policy range --batch 4 \
    --fault-plan 'stall@0:at=5ms,dur=10ms,period=20ms,count=50;fwpause@1:at=30ms,dur=5ms' \
    --deadline-us 50000 --queries 30 --qps 20 > /dev/null
# No resilience flags: sub-ops routed to the dead device degrade at
# issue instead of being lost with it.
./build/tools/recssd_sim --serve --num-ssds 4 --shard-policy range \
    --fault-plan 'dropout@3:at=0ms' --queries 40 --qps 20 \
    | grep -E '^resilience: [1-9][0-9]* degraded queries' > /dev/null

echo
echo "=== stage 4: layout matrix (ctest -L layout + freq smoke) ==="
ctest --test-dir build -L layout --output-on-failure -j
# Freq-layout smoke: the tracker/migration/hot-tier path end to end,
# batch mode and serve mode. RECSSD_AUDIT keeps the L2P bijection
# checks live across migrations and GC.
RECSSD_AUDIT=1 ./build/tools/recssd_sim --model RM1 --backend ndp \
    --all-ssd --layout-policy freq --hot-tier-pages 512 > /dev/null
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --model RM1 --backend ndp \
    --all-ssd --num-ssds 2 --shard-policy range --layout-policy freq \
    --queries 40 --qps 500 > /dev/null

echo
echo "=== stage 5: mixed read-write matrix (ctest -L updates2 + update smokes) ==="
RECSSD_AUDIT=1 ctest --test-dir build -L updates2 --output-on-failure -j
# Mixed-RW smokes: online update stream racing serve-mode gathers,
# single device and sharded+replicated. RECSSD_AUDIT arms the
# torn-gather invariant inside the NDP engine for the whole run.
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --model RM1 --backend ndp \
    --all-ssd --num-ssds 1 --update-rate 2000 --update-skew 0.8 \
    --queries 40 --qps 500 > /dev/null
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --model RM1 --backend ndp \
    --all-ssd --num-ssds 4 --shard-policy hash --replication 2 \
    --update-rate 2000 --update-skew 0.8 --rw-ratio 0.5 \
    --queries 40 --qps 500 > /dev/null
# Faulted mixed-RW leg: a device dropout mid-stream must not break
# read-after-write on the surviving replicas.
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --model RM1 --backend ndp \
    --all-ssd --num-ssds 4 --shard-policy range --replication 2 --batch 4 \
    --update-rate 1000 --update-skew 0.8 \
    --fault-plan 'dropout@3:at=50ms' --hedge-delay-us auto \
    --deadline-us 50000 --queries 30 --qps 20 > /dev/null

echo
echo "=== stage 5q: multi-tenant QoS matrix (ctest -L qos + tenant smokes) ==="
ctest --test-dir build -L qos --output-on-failure -j
# The victim/antagonist pair, dmClock and the fifo A/B baseline. The
# antagonist offers 10x the victim's load through a bursty arrival
# process and is clamped by its limit tag.
QOS_PAIR='victim:model=RM1,qps=20,batch=4,slo=50ms,res=20,weight=1,queries=30;antagonist:model=RM1,qps=200,arrival=bursty,burst=8,batch=8,weight=1,limit=40,queries=60'
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --backend ndp --all-ssd \
    --tenants "${QOS_PAIR}" > /dev/null
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --backend ndp --all-ssd \
    --qos-policy fifo --tenants "${QOS_PAIR}" > /dev/null
# 4 tenants across 2 models; tenant d's update stream drains the same
# QoS limit budget as its reads (aux charges).
RECSSD_AUDIT=1 ./build/tools/recssd_sim --serve --backend ndp --all-ssd \
    --qos-window 8 \
    --tenants 'a:model=RM1,qps=10,batch=4,res=10,queries=20;b:model=RM1,qps=20,batch=4,weight=2,queries=20;c:model=NCF,qps=10,batch=4,weight=1,queries=20;d:model=NCF,qps=50,batch=4,weight=1,limit=20,update_rate=1000,queries=30' \
    > /dev/null

echo
echo "=== stage 6: two-run reproducibility audit (RECSSD_AUDIT=1) ==="
./scripts/audit_repro.sh build/tools/recssd_sim

echo
echo "=== stage 7: observability + perf-regression gate ==="
RECSSD_AUDIT=1 ctest --test-dir build -L obs2 --output-on-failure -j
python3 scripts/bench_baseline.py --self-test
python3 scripts/bench_baseline.py --sim build/tools/recssd_sim

echo
echo "=== stage 7h: host-time benchmark (hostbench build + tests + smokes) ==="
cmake -B build-hostbench -S hostbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-hostbench -j "$(nproc)" --target hostbench hostbench_tests
ctest --test-dir build-hostbench --output-on-failure
# The benchmark refuses to time under RECSSD_AUDIT; its smokes run
# without it.
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    env -u RECSSD_AUDIT ./build-hostbench/hostbench --workload "${workload}" \
        --seed 1 --seconds 1 --trace 0 --out-dir build-hostbench/out \
        > /dev/null
done

if [[ "${RECSSD_SKIP_SANITIZERS:-0}" != "1" ]]; then
    echo
    echo "=== stage 8: quick + shard + layout + obs2 + updates2 + qos + fuzz suites under ASan+UBSan ==="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
        -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
    cmake --build build-asan -j "$(nproc)"
    ctest --test-dir build-asan -L quick --output-on-failure -j
    ctest --test-dir build-asan -L shard --output-on-failure -j
    ctest --test-dir build-asan -L layout --output-on-failure -j
    ctest --test-dir build-asan -L obs2 --output-on-failure -j
    RECSSD_AUDIT=1 ctest --test-dir build-asan -L updates2 --output-on-failure -j
    ctest --test-dir build-asan -L qos --output-on-failure -j
    ctest --test-dir build-asan -L fuzz --output-on-failure
    # The bench gate under ASan: simulated-time metrics are host- and
    # sanitizer-independent, so the same baselines must hold exactly.
    python3 scripts/bench_baseline.py --sim build-asan/tools/recssd_sim \
        --config serve_ndp_1ssd --config serve_qos_2tenant
    ./build-asan/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
        --num-ssds 4 --shard-policy range --queries 40 --qps 500 \
        > /dev/null
    RECSSD_AUDIT=1 ./build-asan/tools/recssd_sim --model RM1 --backend ndp \
        --all-ssd --layout-policy freq --hot-tier-pages 512 > /dev/null
    ./build-asan/tools/recssd_sim --serve --model RM1 --backend ndp --all-ssd \
        --num-ssds 4 --shard-policy range --replication 2 --batch 4 \
        --fault-plan 'dropout@3:at=50ms' --hedge-delay-us auto \
        --deadline-us 50000 --queries 30 --qps 20 > /dev/null
    ./build-asan/tools/recssd_sim --serve --num-ssds 4 --shard-policy range \
        --fault-plan 'dropout@3:at=0ms' --queries 40 --qps 20 \
        | grep -E '^resilience: [1-9][0-9]* degraded queries' > /dev/null
    RECSSD_AUDIT=1 ./build-asan/tools/recssd_sim --serve --model RM1 \
        --backend ndp --all-ssd --num-ssds 1 --update-rate 2000 \
        --update-skew 0.8 --queries 40 --qps 500 > /dev/null
    RECSSD_AUDIT=1 ./build-asan/tools/recssd_sim --serve --backend ndp \
        --all-ssd --tenants "${QOS_PAIR}" > /dev/null
fi

echo
echo "CI gate passed."
