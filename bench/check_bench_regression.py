#!/usr/bin/env python3
"""Diffs two bench_matrix JSON artifacts and prints per-run speedup lines,
so the per-PR perf trajectory is visible in CI logs.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--fail-below R]

Runs are matched by (scenario, label, params) key. Scenarios marked
"stable": true gate the merge — with --fail-below R, exits 1 when any
stable run's items_per_sec ratio (new/old; > 1 is faster) drops below R,
or when any current run reports bit_identical false. Non-stable scenarios
print informational ratios only.

The gated set is deliberate: the stable loops are short, allocation-free,
and best-of-N, so a 2x drop means a real kernel regression, not scheduler
noise. The wall-time scenarios (thread scaling, end-to-end encode, TCP
server) stay informational at any threshold, because shared CI runners
jitter far too much to gate merges on them.

A current artifact that is unreadable or not a bench_matrix artifact is an
error (exit 1). A missing, unreadable or non-matrix baseline is not — the
first run of a fresh trajectory prints the current numbers and exits 0, so
the CI job that seeds the baseline cache passes. Mismatched scales are
likewise informational-only.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_ratio(ratio):
    arrow = "+" if ratio >= 1.0 else "-"
    return f"{ratio:6.2f}x ({arrow})"


def is_matrix(report):
    return report.get("bench") == "bench_matrix" and "scenarios" in report


def run_key(scenario_name, run):
    # Every axis coordinate: two points of one scenario may differ only in,
    # say, their modulus class or dropout rate.
    p = run.get("params", {})
    return (scenario_name, run.get("label"), p.get("mechanism"),
            p.get("modulus_class"), p.get("dim"), p.get("participants"),
            p.get("dropout_rate"), p.get("corrupt_frame_rate"),
            p.get("dispatch"), p.get("shards"), p.get("threads"))


def matrix_run_map(report):
    runs = {}
    for scenario in report.get("scenarios", []):
        for run in scenario.get("runs", []):
            runs[run_key(scenario["name"], run)] = run
    return runs


def print_matrix_current_only(current):
    for scenario in current.get("scenarios", []):
        tag = "stable" if scenario.get("stable") else "info"
        for run in scenario.get("runs", []):
            print(f"  BENCH_POINT [{tag}] {scenario['name']}/{run['label']} "
                  f"threads={run['params']['threads']} "
                  f"items_per_sec={run['items_per_sec']:.3e} "
                  f"bit_identical={run['bit_identical']}")


def diff_matrix(baseline, current, fail_below):
    """Diffs two bench_matrix artifacts; only stable scenarios gate."""
    print(f"bench matrix regression check: "
          f"baseline scale={baseline.get('scale')} "
          f"vs current scale={current.get('scale')} "
          f"(dispatch {baseline.get('host', {}).get('simd_dispatch', '?')} "
          f"-> {current.get('host', {}).get('simd_dispatch', '?')})")
    if baseline.get("scale") != current.get("scale"):
        print("  scales differ; ratios are not comparable — "
              "printing current only")
        print_matrix_current_only(current)
        return 0

    base_runs = matrix_run_map(baseline)
    worst = None
    broken = []
    for scenario in current.get("scenarios", []):
        stable = bool(scenario.get("stable"))
        tag = "stable" if stable else "info"
        for run in scenario.get("runs", []):
            if not run.get("bit_identical", True):
                broken.append(f"{scenario['name']}/{run['label']}")
            b = base_runs.get(run_key(scenario["name"], run))
            if b is None or not b.get("items_per_sec"):
                print(f"  BENCH_DIFF [{tag}] "
                      f"{scenario['name']}/{run['label']} (new point) "
                      f"items_per_sec={run['items_per_sec']:.3e}")
                continue
            r = run["items_per_sec"] / b["items_per_sec"]
            if stable:
                worst = min(worst, r) if worst is not None else r
            print(f"  BENCH_DIFF [{tag}] "
                  f"{scenario['name']}/{run['label']} "
                  f"threads={run['params']['threads']} "
                  f"throughput_ratio={fmt_ratio(r)} "
                  f"bit_identical={run['bit_identical']}")

    if broken:
        print(f"FAIL: bit-identity violated in current artifact: "
              f"{', '.join(broken)}")
        return 1
    if fail_below is not None and worst is not None and worst < fail_below:
        print(f"FAIL: worst stable-scenario throughput ratio {worst:.2f} "
              f"below threshold {fail_below}")
        return 1
    return 0


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    fail_below = None
    if "--fail-below" in argv:
        fail_below = float(argv[argv.index("--fail-below") + 1])

    try:
        current = load(argv[2])
    except (OSError, ValueError) as e:
        print(f"cannot read current report {argv[2]}: {e}")
        return 1
    if not is_matrix(current):
        print(f"current report {argv[2]} is not a bench_matrix artifact")
        return 1
    try:
        baseline = load(argv[1])
    except (OSError, ValueError):
        baseline = None
    if baseline is None or not is_matrix(baseline):
        print("no readable bench_matrix baseline; current numbers "
              "(seeding the trajectory):")
        print_matrix_current_only(current)
        return 0
    return diff_matrix(baseline, current, fail_below)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
