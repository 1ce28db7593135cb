#!/usr/bin/env python3
"""Bench regression gate: fresh BENCH_*.json vs the committed baseline.

Compares every harness-format bench JSON in --fresh against the file of the
same name in --baseline and fails (exit 1) when any recorded mean slowed
down by more than --tolerance (default 25%). Entries are matched by
(figure index, point label, engine name, threads); a mean is gated only
when

  * the same entry exists on both sides (new points/engines pass freely —
    they have no baseline yet),
  * both figures were recorded at the same NOMSKY_SCALE (a scale change
    re-baselines by definition), and
  * the baseline mean is at least --min-seconds (default 1 ms): below
    that, timer noise on shared CI runners dwarfs any real regression, and
  * the absolute slowdown is at least --min-delta-seconds (default 5 ms):
    millisecond-scale means jitter far beyond 25% between identical runs,
    so a relative budget alone would flake — a real regression at smoke
    scale is both relatively AND absolutely slower.

Tail percentiles get their own noise floor: entries whose engine name
contains "p99" (bench_serving records "serve-p99") are gated with
--p99-tolerance / --p99-min-delta-seconds instead. A p99 over a few dozen
requests is one order statistic — a single scheduler hiccup on a shared
runner moves it several-fold — so its budget must be far looser than a
mean's or the gate flakes on every busy machine.

Only the in-tree harness schema (a top-level JSON array of figures, see
bench/harness.cc) is checked; other JSON files (e.g. google-benchmark's
BENCH_micro.json) are skipped with a note.

Missing baselines never fail the gate, they only warn: a fresh bench with
no committed BENCH_*.json counterpart — or a --baseline directory that
does not exist at all (e.g. the first run on a new branch) — is reported
as "warning: ... skipping" and the run exits 0. Committing the fresh
results as the new baseline arms the gate for the next run.

A PRESENT baseline whose entries match nothing in the fresh run is an
error, not a skip: that shape means a rename or re-keying silently
disarmed the gate, so the checker exits 1 and prints the engine names on
both sides. Baseline entries with no fresh counterpart in an otherwise
matching file are named in a warning (a dropped engine or point is
visible, not silently ungated); they do not fail the run.

Usage:
  scripts/check_bench_regression.py --baseline bench_results --fresh out \
      [--tolerance 0.25] [--min-seconds 0.001]
"""

import argparse
import json
import sys
from pathlib import Path

GATED_MEANS = ("avg_query_s", "preprocess_s")


def load_harness_figures(path):
    """Returns the figure list, or None when not harness-format."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"note: skipping {path}: {err}")
        return None
    if not isinstance(doc, list):
        return None
    for figure in doc:
        if not isinstance(figure, dict) or "points" not in figure:
            return None
    return doc


def index_means(figures):
    """{(figure_idx, label, engine, threads, metric): (mean, scale, tier)}"""
    means = {}
    for fi, figure in enumerate(figures):
        scale = figure.get("scale", 1.0)
        tier = figure.get("kernel_tier")  # None on pre-tier baselines
        for point in figure.get("points", []):
            label = point.get("label", "")
            for engine in point.get("engines", []):
                name = engine.get("name", "")
                threads = engine.get("threads", 1)
                for metric in GATED_MEANS:
                    if metric in engine:
                        key = (fi, label, name, threads, metric)
                        means[key] = (float(engine[metric]), scale, tier)
    return means


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory with the committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, type=Path,
                        help="directory with freshly recorded BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max allowed slowdown fraction (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=1e-3,
                        help="baseline means below this are noise; skip")
    parser.add_argument("--min-delta-seconds", type=float, default=5e-3,
                        help="absolute slowdown below this is noise; pass")
    parser.add_argument("--p99-tolerance", type=float, default=2.0,
                        help="slowdown budget for p99 entries (default 2.0 "
                             "= 3x: a tail over tens of requests is one "
                             "order statistic)")
    parser.add_argument("--p99-min-delta-seconds", type=float, default=25e-3,
                        help="absolute p99 slowdown below this is noise")
    args = parser.parse_args()

    fresh_files = sorted(args.fresh.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {args.fresh}", file=sys.stderr)
        return 2

    if not args.baseline.is_dir():
        print(f"warning: baseline directory {args.baseline} does not exist; "
              "nothing to gate against — skipping all "
              f"{len(fresh_files)} fresh benches (commit the fresh results "
              "there to arm the gate)")
        return 0

    regressions = []
    compared = 0
    for fresh_path in fresh_files:
        base_path = args.baseline / fresh_path.name
        if not base_path.exists():
            print(f"warning: {fresh_path.name} has no committed baseline; "
                  "skipping it (commit one to gate it)")
            continue
        fresh_figs = load_harness_figures(fresh_path)
        base_figs = load_harness_figures(base_path)
        if fresh_figs is None or base_figs is None:
            print(f"note: {fresh_path.name} is not harness-format; skipping")
            continue

        base_means = index_means(base_figs)
        fresh_means = index_means(fresh_figs)
        # A baseline that matches NOTHING in the fresh run gates nothing —
        # usually a renamed engine or re-keyed figure. Silently passing here
        # would disarm the gate forever, so fail loudly with both name sets.
        if (base_means and fresh_means
                and not set(base_means) & set(fresh_means)):
            base_names = sorted({k[2] for k in base_means})
            fresh_names = sorted({k[2] for k in fresh_means})
            print(f"error: {fresh_path.name}: baseline has entries but NONE "
                  "match the fresh run (renamed engines or re-keyed "
                  "figures?); re-baseline or fix the bench.\n"
                  f"  baseline engines: {', '.join(base_names)}\n"
                  f"  fresh engines:    {', '.join(fresh_names)}",
                  file=sys.stderr)
            return 1
        stale = sorted(set(base_means) - set(fresh_means))
        if stale:
            print(f"warning: {fresh_path.name}: {len(stale)} baseline "
                  "entries have no fresh counterpart and are not gated:")
            for fi, label, engine, threads, metric in stale:
                print(f"  figure {fi} [{label}] {engine} x{threads} {metric}")
        warned_tiers = set()
        for key, (fresh_mean, fresh_scale, fresh_tier) in \
                sorted(fresh_means.items()):
            if key not in base_means:
                continue
            base_mean, base_scale, base_tier = base_means[key]
            if base_scale != fresh_scale:
                continue  # different workload size; not comparable
            if (base_tier is not None and fresh_tier is not None
                    and base_tier != fresh_tier):
                # Different dominance-kernel dispatch tier (other hardware
                # or a forced fallback): timings are not comparable.
                if key[0] not in warned_tiers:
                    warned_tiers.add(key[0])
                    print(f"warning: {fresh_path.name} figure {key[0]}: "
                          f"kernel tier {base_tier} -> {fresh_tier}; "
                          "skipping cross-tier comparisons")
                continue
            if base_mean < args.min_seconds:
                continue
            compared += 1
            is_tail = "p99" in key[2]
            tolerance = args.p99_tolerance if is_tail else args.tolerance
            min_delta = (args.p99_min_delta_seconds if is_tail
                         else args.min_delta_seconds)
            slowdown = (fresh_mean - base_mean) / base_mean
            if (slowdown > tolerance
                    and fresh_mean - base_mean > min_delta):
                fi, label, engine, threads, metric = key
                regressions.append(
                    f"{fresh_path.name} figure {fi} [{label}] {engine} "
                    f"x{threads} {metric}: {base_mean:.6f}s -> "
                    f"{fresh_mean:.6f}s (+{100 * slowdown:.1f}%)")

    print(f"bench regression gate: {compared} means compared, "
          f"{len(regressions)} over the {100 * args.tolerance:.0f}% budget")
    if regressions:
        print("\nregressions:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
