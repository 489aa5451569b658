#!/usr/bin/env python3
"""Plot the figure CSVs produced by scripts/run_all_experiments.sh.

Usage:
    python3 scripts/plot_results.py [results_dir] [out_dir]
    python3 scripts/plot_results.py --metrics metrics.json [out_dir]

The first form creates one PNG per figure under out_dir (default:
results/plots). The second consumes a metrics snapshot written by
`amf_simulate --metrics-out` and plots the observability series: fallback
tier counts and the warm-start / serving-tier timeline over event index.
Only matplotlib is required; figures it cannot find are skipped with a
note, so partial result directories are fine.
"""
import csv
import json
import os
import sys
from collections import defaultdict

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover - plotting is optional
    sys.exit("plot_results.py needs matplotlib (pip install matplotlib)")


def read_csv(path):
    """Returns (header, rows) skipping '#' comment lines."""
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def series_by(rows, key_idx, x_idx, y_idx):
    out = defaultdict(lambda: ([], []))
    for row in rows:
        xs, ys = out[row[key_idx]]
        xs.append(float(row[x_idx]))
        ys.append(float(row[y_idx]))
    return out


def line_figure(path, title, xlabel, ylabel, key, x, y, out_png, logy=False):
    header, rows = read_csv(path)
    idx = {name: i for i, name in enumerate(header)}
    fig, ax = plt.subplots(figsize=(6, 4))
    for policy, (xs, ys) in sorted(
        series_by(rows, idx[key], idx[x], idx[y]).items()
    ):
        ax.plot(xs, ys, marker="o", label=policy)
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    if logy:
        ax.set_yscale("log")
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(out_png, dpi=150)
    plt.close(fig)
    print(f"wrote {out_png}")


FIGURES = [
    ("bench_f1_balance_vs_skew.csv", "F1: balance vs skew", "zipf skew",
     "Jain index", "policy", "skew", "jain", False),
    ("bench_f3_jct_vs_skew.csv", "F3: mean JCT vs skew (ideal lens)",
     "zipf skew", "mean W/A", "policy", "skew", "ideal_mean_jct", False),
    ("bench_f4_jct_tail.csv", "F4: max JCT vs skew (ideal lens)",
     "zipf skew", "max W/A", "policy", "skew", "ideal_max", True),
    ("bench_f5_jct_cdf.csv", "F5: JCT CDF at z=1.5", "JCT",
     "cumulative fraction", "policy", "jct", "cum_fraction", False),
    ("bench_f9_dynamic.csv", "F9: online mean JCT vs load", "offered load",
     "mean JCT", "policy", "load", "mean_jct", False),
    ("bench_f11_churn.csv", "F11: excess placement churn", "offered load",
     "excess churn", "policy", "load", "excess_churn", False),
    ("bench_f12_locality.csv", "F12: balance vs locality spread",
     "max sites per job", "static Jain", "policy", "max_sites_per_job",
     "static_jain", False),
    ("bench_e1_multiresource.csv", "E1: dominant-share balance vs captivity",
     "captive fraction", "Jain index", "policy", "captivity", "jain", False),
]


# Tier indices match core::FallbackTier.
TIER_NAMES = ["primary", "per-site", "salvage"]


def plot_metrics(metrics_path, out_dir):
    """Observability plots from an amf_simulate --metrics-out snapshot."""
    with open(metrics_path) as fh:
        snap = json.load(fh)
    os.makedirs(out_dir, exist_ok=True)

    counters = snap.get("counters", {})
    tiers = [
        (name, counters.get(f"amf_core_fallback_served_{name.replace('-', '_')}", 0))
        for name in TIER_NAMES
    ]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.bar([t[0] for t in tiers], [t[1] for t in tiers])
    warm_rate = snap.get("gauges", {}).get("amf_core_warm_hit_rate")
    title = "Fallback tier counts"
    if warm_rate is not None:
        title += f" (warm-start hit rate {warm_rate:.1%})"
    ax.set_title(title)
    ax.set_ylabel("events served")
    ax.grid(True, axis="y", alpha=0.3)
    fig.tight_layout()
    out_png = os.path.join(out_dir, "metrics_fallback_tiers.png")
    fig.savefig(out_png, dpi=150)
    plt.close(fig)
    print(f"wrote {out_png}")

    plot_serving_histograms(snap, out_dir)

    events = snap.get("events", [])
    if not events:
        print("no per-event series in snapshot; skipping timeline plot")
        return
    idx = [e["index"] for e in events]
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 5), sharex=True)
    # Running warm-start hit rate over event index.
    warm_running, hits = [], 0
    for i, e in enumerate(events):
        hits += 1 if e["warm"] else 0
        warm_running.append(hits / (i + 1))
    ax1.plot(idx, warm_running, label="running warm hit rate")
    ax1.set_ylabel("warm hit rate")
    ax1.set_ylim(-0.05, 1.05)
    ax1.grid(True, alpha=0.3)
    ax1.legend()
    ax2.step(idx, [e["tier"] for e in events], where="post",
             label="serving tier")
    ax2.set_yticks(range(-1, len(TIER_NAMES)))
    ax2.set_yticklabels(["(none)"] + TIER_NAMES)
    ax2.set_xlabel("event index")
    ax2.grid(True, alpha=0.3)
    ax2.legend()
    fig.tight_layout()
    out_png = os.path.join(out_dir, "metrics_event_timeline.png")
    fig.savefig(out_png, dpi=150)
    plt.close(fig)
    print(f"wrote {out_png}")


# Serving-path latency histograms from an amf_serve scrape
# (`amf_client stats`) or any snapshot that carries amf_svc_* metrics.
SERVING_HISTOGRAMS = [
    ("amf_svc_stage_queue_ms", "queue wait (ms)"),
    ("amf_svc_stage_solve_ms", "allocator wall time (ms)"),
    ("amf_svc_turnaround_ms", "solve turnaround (ms)"),
    ("amf_svc_batch_size", "requests per batch"),
]


def plot_serving_histograms(snap, out_dir):
    histograms = snap.get("histograms", {})
    present = [(name, label) for name, label in SERVING_HISTOGRAMS
               if histograms.get(name, {}).get("count", 0) > 0]
    if not present:
        return
    fig, axes = plt.subplots(len(present), 1,
                             figsize=(7, 2.2 * len(present)), squeeze=False)
    for ax, (name, label) in zip(axes[:, 0], present):
        hist = histograms[name]
        buckets = [b for b in hist.get("buckets", []) if b["count"] > 0]
        edges = [str(b["le"]) for b in buckets]
        counts = [b["count"] for b in buckets]
        ax.bar(range(len(buckets)), counts)
        ax.set_xticks(range(len(buckets)))
        ax.set_xticklabels(edges, rotation=45, fontsize=7)
        ax.set_ylabel("samples")
        ax.set_title(f"{label}: mean {hist.get('mean', 0):.3g}, "
                     f"max {hist.get('max', 0):.3g} "
                     f"(n={hist.get('count', 0)})", fontsize=9)
        ax.grid(True, axis="y", alpha=0.3)
    axes[-1, 0].set_xlabel("bucket upper bound (le)")
    fig.tight_layout()
    out_png = os.path.join(out_dir, "metrics_serving_latency.png")
    fig.savefig(out_png, dpi=150)
    plt.close(fig)
    print(f"wrote {out_png}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--metrics":
        if len(sys.argv) < 3:
            sys.exit("usage: plot_results.py --metrics metrics.json [out_dir]")
        out_dir = sys.argv[3] if len(sys.argv) > 3 else "results/plots"
        plot_metrics(sys.argv[2], out_dir)
        return
    results = sys.argv[1] if len(sys.argv) > 1 else "results"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        results, "plots")
    os.makedirs(out_dir, exist_ok=True)
    for fname, title, xl, yl, key, x, y, logy in FIGURES:
        path = os.path.join(results, fname)
        if not os.path.exists(path):
            print(f"skipping {fname} (not found)")
            continue
        out_png = os.path.join(out_dir, fname.replace(".csv", ".png"))
        line_figure(path, title, xl, yl, key, x, y, out_png, logy)


if __name__ == "__main__":
    main()
