#!/usr/bin/env python3
"""Peak memory of a repeating fault must not grow with its count.

Runs `recssd_sim --serve --queries 3 --fault-plan
'stall@0:count=N,period=1ms'` for N = 100000, then N = 4000000, and
reads each run's peak RSS from `resource.getrusage(RUSAGE_CHILDREN)`.
That reading is the maximum over every child waited for so far, so
after the first run it is that run's peak and after the second it is
the larger of the two. The check passes when the second peaks within
5 MB of the first: fault occurrences are drawn one at a time as a lazy
series, so the count costs simulated time, not memory.

Usage: series_rss.py --sim build/tools/recssd_sim
"""

import argparse
import resource
import subprocess
import sys

SMALL = 100000
LARGE = 4000000
SLACK_MB = 5.0


def peak_after(sim, count):
    """Run one faulted serve; return RUSAGE_CHILDREN peak RSS in MB."""
    cmd = [sim, "--serve", "--queries", "3", "--fault-plan",
           "stall@0:count=%d,period=1ms" % count]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=100)
    if proc.returncode != 0:
        sys.exit("series_rss: %s exited %d\n%s"
                 % (" ".join(cmd), proc.returncode,
                    proc.stderr.decode(errors="replace")))
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sim", required=True)
    args = ap.parse_args()

    small = peak_after(args.sim, SMALL)
    large = peak_after(args.sim, LARGE)
    print("series_rss: count=%d peaks at %.1f MB, count=%d at %.1f MB"
          % (SMALL, small, LARGE, large))
    if large - small > SLACK_MB:
        sys.exit("series_rss: peak RSS grew %.1f MB with the fault count "
                 "(allowed %.1f MB)" % (large - small, SLACK_MB))


if __name__ == "__main__":
    main()
