#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every figure
# and table, and leave the transcripts in test_output.txt /
# bench_output.txt — the end-to-end reproduction in one command.
# (For the fast test-only gate use scripts/ci.sh; the bench loop below
# also picks up ext_tail_latency, the batched multi-queue serving
# sweep.)
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
    for b in build/bench/*; do
        if [ -x "$b" ] && [ -f "$b" ]; then
            echo
            echo "##### $(basename "$b") #####"
            case "$b" in
                *micro*) "$b" --benchmark_min_time=0.05 ;;
                *) "$b" ;;
            esac
        fi
    done
} 2>&1 | tee bench_output.txt

echo
echo "Examples:"
for e in build/examples/*; do
    if [ -x "$e" ] && [ -f "$e" ]; then
        echo; echo "##### $(basename "$e") #####"
        "$e"
    fi
done
