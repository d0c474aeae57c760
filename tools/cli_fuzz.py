#!/usr/bin/env python3
"""cli_fuzz -- hostile-argv check of the recssd_sim flag table.

First checks that the usage text (printed for an unknown flag, with
argv[0] replaced by "recssd_sim") equals the committed golden file, so
a flag cannot be added, dropped or renamed without a reviewed golden
change. Then reads the flag list from that text and proves that each
of these exits 2 within 5 s:

  * every numeric flag with each of -1, nan, inf, 1x, abc, 1e400 and
    the empty string;
  * every choice flag (lowercase '|'-separated metavar) with a word it
    does not list;
  * every flag that takes a value, given last with no value;
  * unknown flags.

Each bad flag goes at a seeded position inside a cheap valid serve
argv, which itself must exit 0. Fault-plan and tenant grammar strings
are out of scope here (their parsers have death tests).

Usage: cli_fuzz.py --sim PATH [--seed N]
"""

import argparse
import os
import random
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "recssd_sim_usage.txt")

# Metavar words: numeric placeholders, and free text the fuzzer leaves
# alone. A lowercase word list is a choice. Anything else is new and
# must be classified here first.
NUMERIC = {"N", "MB", "R", "B", "V", "F", "A"}
TEXT = {"NAME", "FILE", "SPEC", "-"}
BAD_NUMBERS = ["-1", "nan", "inf", "1x", "abc", "1e400", ""]
UNKNOWN_FLAGS = ["--bogus", "--", "-", "--Batch", "--batch=4", "batch",
                 ""]
BASE = [["--serve"], ["--queries", "2"], ["--qps", "1000"],
        ["--batch", "1"]]


def run(sim, argv):
    """Exit status of `sim argv`, or None when it outlives 5 s."""
    try:
        proc = subprocess.run([sim] + argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=5)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stderr.decode(errors="replace")


def classify(metavar):
    words = metavar.split("|")
    if metavar == metavar.lower():
        return "choice"
    if words[0] in NUMERIC:
        return "numeric"
    if all(w in TEXT for w in words):
        return "text"
    raise SystemExit("cli_fuzz: unclassified metavar '%s'" % metavar)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sim", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    status, usage = run(args.sim, ["--bogus"])
    usage = usage.replace(args.sim, "recssd_sim")
    with open(GOLDEN) as f:
        golden = f.read()
    if status != 2 or usage != golden:
        sys.stderr.write("cli_fuzz: usage text (exit %s) differs from %s:"
                         "\n%s" % (status, GOLDEN, usage))
        return 1

    flags = re.findall(r"\[(--[a-z-]+)(?: ([^\]]+))?\]", usage)
    if not flags:
        sys.stderr.write("cli_fuzz: no flags in the usage text\n")
        return 1

    base = [a for group in BASE for a in group]
    status, _ = run(args.sim, base)
    if status != 0:
        sys.stderr.write("cli_fuzz: base argv exits %s, not 0\n" % status)
        return 1

    def at_seeded_position(group):
        groups = list(BASE)
        groups.insert(rng.randint(0, len(groups)), group)
        return [a for g in groups for a in g]

    cases = []
    for name, metavar in flags:
        if not metavar:
            continue
        cases.append(base + [name])
        kind = classify(metavar)
        if kind == "numeric":
            bad = BAD_NUMBERS
        elif kind == "choice":
            bad = ["bogus", "", metavar, metavar.split("|")[0].upper()]
        else:
            continue
        cases += [at_seeded_position([name, value]) for value in bad]
    cases += [at_seeded_position([flag]) for flag in UNKNOWN_FLAGS]

    failures = 0
    for argv in cases:
        status, _ = run(args.sim, argv)
        if status != 2:
            failures += 1
            sys.stderr.write("cli_fuzz: exit %s, not 2: %s\n" %
                             ("timeout" if status is None else status,
                              " ".join(repr(a) for a in argv)))
    print("cli_fuzz: %d flags, %d hostile argvs, %d failures (seed %d)" %
          (len(flags), len(cases), failures, args.seed))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
