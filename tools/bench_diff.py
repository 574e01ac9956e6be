#!/usr/bin/env python3
"""Diff two BENCH_*.json artifact sets and flag perf regressions.

Every non-gbench bench binary emits one ``BENCH_<name>.json`` artifact
(bench::JsonReporter, schema_version 1): labelled rows of numeric metrics.
This tool compares a baseline directory against a current one, prints a
per-bench delta table, and exits non-zero when any *tracked* metric moved
in its bad direction beyond the threshold — the perf-trajectory gate CI runs on every sweep.

Tracked metrics default to the deterministic cost counters (candidates,
node accesses, page faults, and the modeled I/O seconds derived from
them); measured CPU seconds are too noisy on shared CI runners to gate on,
but can be opted in with --metrics.

Every metric has a direction. Throughput and speedup metrics (``qps``,
``*_per_second``, ``*speedup*``) are higher-is-better: a fall beyond the
threshold regresses and a rise improves. Everything else is a cost and
lower-is-better.

Histogram-summary latency rows (the p50_ms/p99_ms metrics benches emit
from the observability histograms, e.g. engine-exec latency) are gated
too, under their own --latency-threshold: wall-clock quantiles on shared
runners are real measurements but noisier than the deterministic
counters, so they get a wider band instead of being dropped from the
gate entirely.

Usage:
  bench_diff.py BASELINE_DIR CURRENT_DIR [--threshold 0.15]
                [--metrics candidates,node_accesses,page_faults,io_seconds]
                [--latency-metrics p50_ms,p99_ms] [--latency-threshold 0.5]
                [--github] [--out delta.md]

Exit codes: 0 = no regression, 1 = at least one tracked metric regressed,
2 = usage or unreadable artifacts.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_METRICS = "candidates,node_accesses,page_faults,io_seconds"
DEFAULT_LATENCY_METRICS = "p50_ms,p99_ms"


def load_artifacts(directory: Path):
    """Returns {bench_name: {row_label: {metric: value}}}."""
    benches = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            sys.exit(2)
        if doc.get("schema_version") != 1:
            print(
                f"error: {path} has schema_version "
                f"{doc.get('schema_version')!r}, want 1",
                file=sys.stderr,
            )
            sys.exit(2)
        rows = {}
        for row in doc.get("rows", []):
            rows[row["label"]] = dict(row.get("metrics", {}))
        name = doc.get("bench", path.stem)
        if name in benches:
            # Overwriting would silently drop the earlier artifact's rows
            # from both sides of the gate.
            print(
                f"error: duplicate bench name '{name}' in {path}",
                file=sys.stderr,
            )
            sys.exit(2)
        benches[name] = rows
    return benches


def higher_is_better(metric: str) -> bool:
    """Throughput and speedup metrics improve when they rise."""
    return metric == "qps" or metric.endswith("_per_second") or (
        "speedup" in metric
    )


def relative_delta(old: float, new: float):
    """Relative change of a metric; None when undefined (old == 0)."""
    if old == 0:
        return None
    return (new - old) / old


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", type=Path, help="baseline artifact dir")
    parser.add_argument("current", type=Path, help="current artifact dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative change in a metric's bad direction that counts as "
        "a regression (default 0.15)",
    )
    parser.add_argument(
        "--metrics",
        default=DEFAULT_METRICS,
        help=f"comma-separated tracked metrics (default {DEFAULT_METRICS})",
    )
    parser.add_argument(
        "--latency-metrics",
        default=DEFAULT_LATENCY_METRICS,
        help="comma-separated histogram-summary metrics gated under "
        f"--latency-threshold (default {DEFAULT_LATENCY_METRICS})",
    )
    parser.add_argument(
        "--latency-threshold",
        type=float,
        default=0.5,
        help="relative growth that counts as a latency regression "
        "(default 0.5; quantiles are noisier than cost counters)",
    )
    parser.add_argument(
        "--zero-tolerance",
        type=float,
        default=0.0,
        help="absolute growth allowed on a zero baseline (default 0)",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="emit GitHub Actions annotations for regressions",
    )
    parser.add_argument(
        "--annotate-level",
        choices=("warning", "error"),
        default="warning",
        help="annotation level for --github: 'warning' for advisory runs, "
        "'error' when the caller treats a non-zero exit as a hard gate",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write the table here"
    )
    args = parser.parse_args()

    for directory in (args.baseline, args.current):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
    if args.threshold <= 0 or args.latency_threshold <= 0:
        print("error: thresholds must be positive", file=sys.stderr)
        return 2
    cost_metrics = [m for m in args.metrics.split(",") if m]
    if not cost_metrics:
        print("error: --metrics lists no metrics", file=sys.stderr)
        return 2
    latency_metrics = [m for m in args.latency_metrics.split(",") if m]
    # Latency metrics ride behind the cost counters in one tracked list;
    # each metric is gated under its own threshold below.
    tracked = cost_metrics + [
        m for m in latency_metrics if m not in cost_metrics
    ]
    latency_set = set(latency_metrics)

    baseline = load_artifacts(args.baseline)
    current = load_artifacts(args.current)
    if not baseline:
        print(
            f"note: no BENCH_*.json in baseline {args.baseline}; "
            "nothing to compare (first run?)"
        )
        return 0
    if not current:
        print(f"error: no BENCH_*.json in current {args.current}", file=sys.stderr)
        return 2

    lines = []  # the delta table, also written to --out
    regressions = []  # (bench, label, metric, old, new, delta)
    # Benches or rows present in only one artifact set: listed in the table
    # and counted as warnings, NEVER a failure — a freshly added bench (or
    # row label) must not trip the gate on its first run, and a removed or
    # renamed one is a review question, not a perf regression. Both
    # directions are counted, so retiring a bench and adding one read the
    # same way in the summary.
    one_sided = []  # (scope, note)
    improvements = 0
    compared = 0

    for bench in sorted(set(baseline) | set(current)):
        if bench not in current:
            note = "missing from current run (removed bench?)"
            one_sided.append((bench, note))
            lines.append(f"~ WARNING {bench}: {note}")
            continue
        if bench not in baseline:
            note = "new bench, no baseline yet"
            one_sided.append((bench, note))
            lines.append(f"~ WARNING {bench}: {note}")
            continue
        bench_lines = []
        # Row labels in only one run are the same one-sided case one level
        # down (a renamed sweep configuration, a retired scale point):
        # counted warnings in both directions, never a failure.
        for label in sorted(set(current[bench]) - set(baseline[bench])):
            note = "new row, no baseline yet"
            one_sided.append((f"{bench} / {label}", note))
            bench_lines.append(f"  ~ WARNING row '{label}': {note}")
        for label, old_metrics in baseline[bench].items():
            new_metrics = current[bench].get(label)
            if new_metrics is None:
                note = "missing from current run (renamed row?)"
                one_sided.append((f"{bench} / {label}", note))
                bench_lines.append(f"  ~ WARNING row '{label}': {note}")
                continue
            for metric in tracked:
                old_has = metric in old_metrics
                new_has = metric in new_metrics
                if not old_has and not new_has:
                    continue  # this bench never reported the metric
                if old_has != new_has:
                    # A gated metric that disappeared (or appeared) is a
                    # visible note, never a silent drop from the gate.
                    side = "baseline" if old_has else "current"
                    bench_lines.append(
                        f"  ~ {label} / {metric}: only in {side} run"
                    )
                    continue
                old, new = old_metrics[metric], new_metrics[metric]
                compared += 1
                threshold = (
                    args.latency_threshold
                    if metric in latency_set
                    else args.threshold
                )
                delta = relative_delta(old, new)
                # `worse`: the relative change in the metric's bad
                # direction (growth of a cost, fall of a throughput).
                sign = -1.0 if higher_is_better(metric) else 1.0
                if delta is None:
                    # A cost appearing on a zero baseline regresses; a
                    # throughput rising from zero cannot.
                    regressed = sign > 0 and new > args.zero_tolerance
                    shown = "inf" if new > 0 else "0%"
                    worse = None
                else:
                    worse = sign * delta
                    regressed = worse > threshold
                    shown = f"{delta:+.1%}"
                if regressed:
                    regressions.append((bench, label, metric, old, new, shown))
                    marker = "REGRESSED"
                elif worse is not None and worse < -threshold:
                    improvements += 1
                    marker = "improved"
                else:
                    continue  # within threshold: keep the table readable
                bench_lines.append(
                    f"  {marker:>9}  {label} / {metric}: "
                    f"{old:g} -> {new:g} ({shown})"
                )
        if bench_lines:
            lines.append(f"{bench}:")
            lines.extend(bench_lines)

    header = (
        f"bench_diff: {len(baseline)} baseline vs {len(current)} current "
        f"benches, {compared} tracked metrics compared, "
        f"threshold {args.threshold:.0%} "
        f"(latency {args.latency_threshold:.0%})"
    )
    summary = (
        f"{len(regressions)} regression(s), {improvements} improvement(s) "
        f"beyond threshold, {len(one_sided)} bench(es)/row(s) in only one "
        f"set (warnings)"
    )
    output = "\n".join([header] + lines + [summary])
    print(output)
    if args.out:
        args.out.write_text(output + "\n", encoding="utf-8")

    if args.github:
        for bench, label, metric, old, new, shown in regressions:
            gate = (
                args.latency_threshold
                if metric in latency_set
                else args.threshold
            )
            print(
                f"::{args.annotate_level} title=perf regression in {bench}::"
                f"{label} / {metric}: {old:g} -> {new:g} ({shown}, "
                f"threshold {gate:.0%})"
            )
        # One-sided benches/rows always annotate at warning level, whatever
        # the caller's gate level: they are informational by design.
        for scope, note in one_sided:
            print(f"::warning title=bench set changed::{scope}: {note}")

    if regressions:
        worst = ", ".join(sorted({r[0] for r in regressions}))
        print(f"REGRESSION in: {worst}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception as exc:  # malformed artifact shape, unwritable --out, ...
        # Exit 2, never 1: callers treat 1 as "regression found" and may
        # soften it (the PR gate does); a crashed gate must stay loud.
        print(f"error: bench_diff failed: {exc!r}", file=sys.stderr)
        sys.exit(2)
