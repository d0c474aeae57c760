#!/usr/bin/env python3
"""Plot per-phase request-time breakdowns (the paper's Fig 6/8 shape).

Input: attribution JSON files produced by either

    build/bench/ext_phase_breakdown <outdir>     # phases_<config>.json
    build/tools/recssd_sim ... --serve           # pipe the JSON yourself

Each file is one AttributionReport: {"requests": N, "coverage": C,
"phases": [{"phase": name, "fraction": f, "mean_us": m, ...}, ...]}.

Critical-path blame reports (recssd_sim --blame-out FILE) are accepted
too — detected by their "resources" key — and render as blame stacks:
one segment per (resource, span) blame target, heaviest targets first,
the long tail of small rows collapsed into "(rest)". Mixing phase and
blame files in one chart works; each bar uses its own column set.

Usage:
    scripts/plot_phase_breakdown.py <dir-or-json> [more.json ...]
        [-o breakdown.png] [--tail] [--top N]
    scripts/plot_phase_breakdown.py --tenants metrics.jsonl
        [-o tenants.png] [--tenant-metric pending]

--tail plots a blame report's tail view (share of p99-and-worse
request time) instead of the whole-population view.

--tenants switches to the tenant-stacked rendering: the input is a
MetricSampler series (recssd_sim --metrics-out FILE.jsonl from a
--tenants serve run), and the chart stacks one area per tenant from
the serve.tenant.<name>.<metric> columns — by default the live
`pending` queue-depth gauge, the direct visualization of who is
absorbing an overload. Columns appear mid-series when the harness
registers its gauges; missing cells read as 0.

With matplotlib installed, writes a stacked horizontal-bar chart (one
bar per config, one segment per phase). Without it, falls back to an
ASCII rendering on stdout so the script is useful on bare CI hosts.
"""

import argparse
import json
import os
import sys

# Stable phase order (deepest first) and a fixed palette so the same
# phase keeps its color across charts. Must track src/obs/phase.h.
PHASE_ORDER = [
    "flash.read",
    "flash.write",
    "ndp.translate",
    "ndp.config",
    "ftl.cpu",
    "nvme.result_dma",
    "nvme.xfer",
    "driver.submit",
    "device.wait",
    "host.queue_wait",
    "host.compute",
    "sched.queue",
    "other",
]

PALETTE = [
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c", "#98df8a",
    "#d62728", "#ff9896", "#9467bd", "#c5b0d5", "#8c564b", "#e377c2",
    "#7f7f7f",
]


def blame_fractions(report, tail=False, top=8):
    """Collapse a BlameReport into {segment: fraction} columns.

    Segments are "track/name" blame targets, heaviest `top` kept,
    the rest folded into "(rest)" so die-per-channel fan-outs don't
    drown the legend. Rows are keyed by phase too, so the phases of
    one target (a PCIe `xfer` moving commands or results) sum into
    one segment.
    """
    key = "tail_fraction" if tail else "fraction"
    targets = {}
    for row in report["resources"]:
        label = "%s/%s" % (row["track"] or "(uncovered)", row["name"])
        targets[label] = targets.get(label, 0.0) + row[key]
    fractions = {}
    rest = 0.0
    ranked = sorted(targets.items(), key=lambda kv: -kv[1])
    for i, (label, fraction) in enumerate(ranked):
        if i < top:
            fractions[label] = fraction
        else:
            rest += fraction
    if rest > 0.0:
        fractions["(rest)"] = rest
    return fractions


def load_report(path, tail=False, top=8):
    with open(path) as f:
        report = json.load(f)
    label = os.path.basename(path)
    if label.startswith("phases_"):
        label = label[len("phases_"):]
    if label.endswith(".json"):
        label = label[: -len(".json")]
    if "resources" in report:  # critical-path blame report
        fractions = blame_fractions(report, tail=tail, top=top)
    else:  # phase attribution report
        fractions = {row["phase"]: row["fraction"]
                     for row in report["phases"]}
    return label, report, fractions


def collect_inputs(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            found = sorted(
                os.path.join(p, f)
                for f in os.listdir(p)
                if f.endswith(".json")
            )
            if not found:
                sys.exit(f"no .json files in {p}")
            files.extend(found)
        else:
            files.append(p)
    return files


def phase_columns(reports):
    """Phases that appear anywhere, in canonical order, unknowns last."""
    seen = set()
    for _, _, fractions in reports:
        seen.update(fractions)
    ordered = [p for p in PHASE_ORDER if p in seen]
    ordered += sorted(seen - set(PHASE_ORDER))
    return ordered


def ascii_chart(reports, phases, width=60):
    legend = {p: chr(ord("A") + i) for i, p in enumerate(phases)}
    print("Per-phase share of request time (each column ~ "
          f"{100.0 / width:.1f}%):\n")
    label_w = max(len(label) for label, _, _ in reports)
    for label, report, fractions in reports:
        bar = ""
        for p in phases:
            cells = int(round(fractions.get(p, 0.0) * width))
            bar += legend[p] * cells
        bar = bar[:width].ljust(width, ".")
        mean = report.get("mean_request_us", 0.0)
        print(f"  {label:<{label_w}} |{bar}| mean {mean:.0f}us")
    print("\nLegend:")
    for p in phases:
        print(f"  {legend[p]} = {p}")


def matplotlib_chart(reports, phases, out):
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    labels = [label for label, _, _ in reports]
    fig, ax = plt.subplots(figsize=(9, 1.2 + 0.6 * len(reports)))
    left = [0.0] * len(reports)
    for p in phases:
        vals = [fractions.get(p, 0.0) * 100 for _, _, fractions in reports]
        color = PALETTE[PHASE_ORDER.index(p) % len(PALETTE)] \
            if p in PHASE_ORDER else None
        ax.barh(labels, vals, left=left, label=p, color=color)
        left = [l + v for l, v in zip(left, vals)]
    ax.set_xlabel("share of request time (%)")
    ax.set_xlim(0, 100)
    ax.invert_yaxis()
    ax.legend(loc="center left", bbox_to_anchor=(1.02, 0.5), fontsize=8)
    ax.set_title("Per-phase request-time breakdown")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def load_tenant_series(path, metric):
    """Parse a MetricSampler JSONL into per-tenant time series.

    Returns (ts_us, {tenant: [values]}), all series aligned to ts_us
    (cells before a column existed are 0).
    """
    prefix = "serve.tenant."
    suffix = "." + metric
    ts = []
    series = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            ts.append(row["ts_us"])
            for key, value in row.items():
                if not key.startswith(prefix) or not key.endswith(suffix):
                    continue
                tenant = key[len(prefix):-len(suffix)]
                series.setdefault(tenant, [0.0] * (len(ts) - 1))
                series[tenant].append(float(value))
            for vals in series.values():
                if len(vals) < len(ts):
                    vals.append(0.0)
    if not series:
        sys.exit(f"no serve.tenant.*.{metric} columns in {path} "
                 "(was the run started with --tenants and "
                 "--metrics-out FILE.jsonl?)")
    return ts, series


def ascii_tenant_chart(ts, series, metric, width=72):
    """One sparkline row per tenant, shared scale."""
    peak = max(max(vals) for vals in series.values()) or 1.0
    shades = " .:-=+*#%@"
    label_w = max(len(t) for t in series)
    step = max(1, len(ts) // width)
    print(f"Per-tenant {metric} over time (peak {peak:.0f}, "
          f"{ts[-1] / 1000.0:.1f}ms span):\n")
    for tenant in sorted(series):
        vals = series[tenant]
        cells = ""
        for i in range(0, len(vals), step):
            window = vals[i:i + step]
            frac = max(window) / peak
            cells += shades[min(len(shades) - 1,
                                int(frac * (len(shades) - 1) + 0.5))]
        print(f"  {tenant:<{label_w}} |{cells}|")
    print(f"\nScale: ' '=0 .. '@'={peak:.0f} {metric}")


def matplotlib_tenant_chart(ts, series, metric, out):
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    tenants = sorted(series)
    ts_ms = [t / 1000.0 for t in ts]
    fig, ax = plt.subplots(figsize=(9, 4))
    ax.stackplot(ts_ms, [series[t] for t in tenants], labels=tenants)
    ax.set_xlabel("time (ms)")
    ax.set_ylabel(metric)
    ax.legend(loc="upper right", fontsize=8)
    ax.set_title(f"Per-tenant {metric} (stacked)")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="+",
                    help="attribution JSON files, or a directory of them")
    ap.add_argument("-o", "--out", default="phase_breakdown.png",
                    help="output image (with matplotlib)")
    ap.add_argument("--ascii", action="store_true",
                    help="force the ASCII rendering")
    ap.add_argument("--tail", action="store_true",
                    help="blame reports: plot the tail (>= p99) view")
    ap.add_argument("--top", type=int, default=8,
                    help="blame reports: segments before collapsing "
                         "into (rest)")
    ap.add_argument("--tenants", action="store_true",
                    help="tenant-stacked mode: input is a MetricSampler "
                         "JSONL from a --tenants serve run")
    ap.add_argument("--tenant-metric", default="pending",
                    choices=["pending", "admitted", "completed"],
                    help="which serve.tenant.* gauge to stack")
    args = ap.parse_args()

    if args.tenants:
        if len(args.inputs) != 1:
            sys.exit("--tenants takes exactly one metrics JSONL")
        ts, series = load_tenant_series(args.inputs[0],
                                        args.tenant_metric)
        use_ascii = args.ascii
        if not use_ascii:
            try:
                import matplotlib  # noqa: F401
            except ImportError:
                print("matplotlib not available; falling back to "
                      "ASCII\n", file=sys.stderr)
                use_ascii = True
        if use_ascii:
            ascii_tenant_chart(ts, series, args.tenant_metric)
        else:
            matplotlib_tenant_chart(ts, series, args.tenant_metric,
                                    args.out)
        return

    reports = [load_report(f, tail=args.tail, top=args.top)
               for f in collect_inputs(args.inputs)]
    phases = phase_columns(reports)

    use_ascii = args.ascii
    if not use_ascii:
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            print("matplotlib not available; falling back to ASCII\n",
                  file=sys.stderr)
            use_ascii = True

    if use_ascii:
        ascii_chart(reports, phases)
    else:
        matplotlib_chart(reports, phases, args.out)


if __name__ == "__main__":
    main()
