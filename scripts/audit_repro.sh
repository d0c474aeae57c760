#!/usr/bin/env bash
# Two-run reproducibility audit: run the same seeded config twice with
# RECSSD_AUDIT=1 (deep runtime invariant checks live) and byte-diff
# every exported artifact -- stats JSON, metrics JSONL, Chrome trace,
# critical-path blame JSON, and stdout. Separate processes, so ASLR / allocator variation is in
# play: any hash-order leak into an export shows up as a diff here
# even if an in-process double run would hide it.
#
# Usage: scripts/audit_repro.sh [SIM] [--against OLD_SIM]
#
# With --against, run 1 uses OLD_SIM (say, the parent commit's build)
# and run 2 uses SIM over the same seeded configs, so a change that
# must not alter simulated behaviour (a host-time optimisation) proves
# its artifacts byte-identical to the old binary's.
set -euo pipefail
cd "$(dirname "$0")/.."

SIM=""
OLD_SIM=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --against)
            if [[ $# -lt 2 ]]; then
                echo "audit_repro: --against needs a path"
                exit 2
            fi
            OLD_SIM="$2"
            shift 2
            ;;
        *)
            SIM="$1"
            shift
            ;;
    esac
done
SIM="${SIM:-build/tools/recssd_sim}"
for bin in "$SIM" ${OLD_SIM:+"$OLD_SIM"}; do
    if [[ ! -x "$bin" ]]; then
        echo "audit_repro: $bin not built; run cmake --build build first"
        exit 1
    fi
done
# Absolute paths: every run executes from its own artifact directory.
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
SIM=$(abspath "$SIM")
RUN1_SIM="$SIM"
if [[ -n "$OLD_SIM" ]]; then
    RUN1_SIM=$(abspath "$OLD_SIM")
    echo "audit_repro: run 1 uses $RUN1_SIM, run 2 uses $SIM"
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

run_twice() {
    local name="$1"
    shift
    local failed=0
    # Identical artifact paths per run (cd into a per-run dir) so the
    # paths echoed on stdout can't cause a spurious diff.
    for i in 1 2; do
        local sim="$SIM"
        if [[ "$i" == 1 ]]; then
            sim="$RUN1_SIM"
        fi
        mkdir -p "$workdir/$name/run$i"
        (cd "$workdir/$name/run$i" &&
            RECSSD_AUDIT=1 "$sim" "$@" \
                --stats-json stats.json \
                --metrics-out metrics.jsonl \
                --trace-out trace.json \
                --blame-out blame.json \
                > stdout)
    done
    for art in stats.json metrics.jsonl trace.json blame.json stdout; do
        if ! cmp -s "$workdir/$name/run1/$art" "$workdir/$name/run2/$art"
        then
            echo "audit_repro: $name: $art differs between run 1 and run 2"
            diff "$workdir/$name/run1/$art" "$workdir/$name/run2/$art" |
                head -20
            failed=1
        fi
    done
    if [[ "$failed" != 0 ]]; then
        exit 1
    fi
    echo "audit_repro: $name: all artifacts byte-identical"
}

run_twice serve-1ssd \
    --serve --model RM1 --backend ndp --all-ssd --num-ssds 1 \
    --queries 40 --qps 500 --seed 13
run_twice serve-2ssd-range \
    --serve --model RM1 --backend ndp --all-ssd --num-ssds 2 \
    --shard-policy range --queries 40 --qps 500 --seed 13
run_twice batch-base \
    --model RM1 --backend base --all-ssd --seed 13
# Frequency-aware layout: tracker decay sweeps, hot-cluster migrations
# racing GC, and hot-tier pins must all replay identically — any
# unordered-container leak in promotion/demotion order diffs here.
run_twice batch-ndp-freq-layout \
    --model RM1 --backend ndp --all-ssd \
    --layout-policy freq --hot-tier-pages 512 --seed 13
# Mixed read-write serving: the seeded update stream, flush batching,
# replica write fan-out, GC kicked by update churn, and fence
# redirects in the NDP engine must all replay identically — the
# write path gets no reproducibility exemption.
run_twice serve-1ssd-updates \
    --serve --model RM1 --backend ndp --all-ssd --num-ssds 1 \
    --update-rate 2000 --update-skew 0.8 \
    --queries 40 --qps 500 --seed 13
# Multi-tenant QoS serving: per-tenant load generators, dmClock tag
# assignment and grant order, tenant-tagged spans, the per-tenant
# registry gauges in the metrics series, and a limit-throttled update
# stream must all replay identically across processes.
run_twice serve-qos-2tenant \
    --serve --backend ndp --all-ssd --seed 13 \
    --tenants 'victim:model=RM1,qps=10,batch=4,slo=50ms,res=10,weight=1,queries=30;antagonist:model=RM1,qps=40,arrival=bursty,burst=4,batch=4,weight=1,limit=20,update_rate=500,queries=40'
# SLO monitor and update stream on the plain serve harness: the
# windowed series, the serve.slo.* and serve.update.* scalars
# registered after the run, and their late metric columns.
run_twice serve-1ssd-slo-updates \
    --serve --model RM1 --backend ndp --all-ssd --num-ssds 1 --batch 4 \
    --slo-target-us 50000 --slo-window-us 20000 \
    --update-rate 500 --queries 30 --qps 20 --seed 13
# The same on the tenant harness: one monitor per tenant against its
# own target, beside a tenant-owned update stream.
run_twice serve-qos-slo-updates \
    --serve --backend ndp --all-ssd --seed 13 \
    --slo-target-us 20000 --slo-window-us 5000 \
    --tenants 'victim:model=RM1,qps=10,batch=4,slo=50ms,res=10,weight=1,queries=20;rw:model=RM1,qps=40,batch=4,slo=500ms,weight=1,limit=60,update_rate=500,queries=30'
# The whole tail-tolerance machinery at once: injector RNG, hedge
# timers racing completions, a mid-run dropout failing over, deadline
# delivery — all of it must still be a pure function of the config.
run_twice serve-4ssd-faulted \
    --serve --model RM1 --backend ndp --all-ssd --num-ssds 4 \
    --shard-policy range --replication 2 \
    --fault-plan 'stall@1:at=2ms,dur=2ms,period=6ms,count=20;dropout@3:at=50ms' \
    --hedge-delay-us auto --deadline-us 30000 \
    --queries 40 --qps 15 --seed 13

echo "audit_repro: reproducibility audit passed"
