#!/usr/bin/env python3
"""Build the recssd host-time benchmark from source and run one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator library and the benchmark driver (RelWithDebInfo) under
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that
variable is unset; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Span files of traced runs land in .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the driver; return its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(os.path.join(os.path.abspath(root), "hostbench"))
    if driver is None:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        driver, "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--out-dir", ".bench_out",
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
