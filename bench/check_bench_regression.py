#!/usr/bin/env python3
"""Diffs two bench JSON artifacts and prints per-section speedup lines, so
the per-PR perf trajectory is visible in CI logs.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--fail-below R]

Handles both artifact shapes and picks the diff automatically:

  * bench_matrix artifacts (schema_version + scenarios): runs are matched
    by (scenario, label, params) key. Scenarios marked "stable": true gate
    the merge — with --fail-below R, exits 1 when any stable run's
    items_per_sec ratio (new/old; > 1 is faster) drops below R, or when any
    current run reports bit_identical false. Non-stable scenarios print
    informational ratios only.
  * legacy bench_scaling_threads artifacts: compares, per thread-scaling
    section, the best single-thread seconds and the highest-thread-count
    seconds, and, per SIMD kernel, the dispatched elements/sec; only the
    simd_kernels ratios gate under --fail-below.

In both shapes the gated set is deliberate: those loops are short,
allocation-free, and best-of-N, so a 2x drop means a real kernel
regression, not scheduler noise. The wall-time sections (thread scaling,
end-to-end encode, TCP server) stay informational at any threshold,
because shared CI runners jitter far too much to gate merges on them.

A missing or unreadable baseline is not an error — the first run of a
fresh trajectory prints the current numbers and exits 0, so the CI job
that seeds the baseline cache passes. Mismatched scales or mismatched
artifact shapes are likewise informational-only.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_ratio(ratio):
    arrow = "+" if ratio >= 1.0 else "-"
    return f"{ratio:6.2f}x ({arrow})"


def section_map(report, key, name_field="name"):
    return {s[name_field]: s for s in report.get(key, [])}


def print_current_only(current):
    print("no readable baseline; current numbers (seeding the trajectory):")
    for s in current.get("sections", []):
        secs = s["seconds"]
        print(f"  BENCH_SECTION section={s['name']} t1={secs[0]:.3e}s "
              f"t{s['threads'][-1]}={secs[-1]:.3e}s")
    for k in current.get("simd_kernels", []):
        print(f"  BENCH_SIMD kernel={k['name']} "
              f"dispatch_eps={k['dispatch_eps']:.3e} "
              f"speedup_vs_scalar={k['speedup']:.2f}x")


def is_matrix(report):
    return report.get("bench") == "bench_matrix" and "scenarios" in report


def run_key(scenario_name, run):
    p = run.get("params", {})
    return (scenario_name, run.get("label"), p.get("dim"),
            p.get("participants"), p.get("dispatch"), p.get("threads"))


def matrix_run_map(report):
    runs = {}
    for scenario in report.get("scenarios", []):
        for run in scenario.get("runs", []):
            runs[run_key(scenario["name"], run)] = run
    return runs


def print_matrix_current_only(current):
    print("no readable baseline; current numbers (seeding the trajectory):")
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
    try:
        baseline = load(argv[1])
    except (OSError, ValueError):
        if is_matrix(current):
            print_matrix_current_only(current)
        else:
            print_current_only(current)
        return 0

    if is_matrix(current) != is_matrix(baseline):
        print("artifact shapes differ (legacy vs matrix); "
              "not comparable — printing current only")
        if is_matrix(current):
            print_matrix_current_only(current)
        else:
            print_current_only(current)
        return 0
    if is_matrix(current):
        return diff_matrix(baseline, current, fail_below)

    print(f"bench regression check: baseline scale={baseline.get('scale')} "
          f"vs current scale={current.get('scale')} "
          f"(dispatch {baseline.get('simd_dispatch', '?')} -> "
          f"{current.get('simd_dispatch', '?')})")
    if baseline.get("scale") != current.get("scale"):
        print("  scales differ; ratios are not comparable — "
              "printing current only")
        print_current_only(current)
        return 0

    base_sections = section_map(baseline, "sections")
    for s in current.get("sections", []):
        b = base_sections.get(s["name"])
        if b is None or not b["seconds"] or not s["seconds"]:
            print(f"  BENCH_DIFF section={s['name']} (new section)")
            continue
        # Throughput ratio at one thread and at the top thread count;
        # > 1 means the current revision is faster. Informational only.
        r1 = b["seconds"][0] / s["seconds"][0]
        rn = b["seconds"][-1] / s["seconds"][-1]
        print(f"  BENCH_DIFF section={s['name']} "
              f"t1_throughput_ratio={fmt_ratio(r1)} "
              f"t{s['threads'][-1]}_throughput_ratio={fmt_ratio(rn)}")

    # TCP server throughput is wall-time over real sockets — informational
    # only, like the other wall-time sections.
    base_server = section_map(baseline, "server_sessions")
    for s in current.get("server_sessions", []):
        b = base_server.get(s["name"])
        if b is None or not b.get("seconds") or not s.get("seconds"):
            print(f"  BENCH_DIFF server_sessions={s['name']} (new section) "
                  f"sessions_per_sec_t{s['threads'][-1]}="
                  f"{s['sessions_per_sec'][-1]:.3e}")
            continue
        r1 = b["seconds"][0] / s["seconds"][0]
        rn = b["seconds"][-1] / s["seconds"][-1]
        print(f"  BENCH_DIFF server_sessions={s['name']} "
              f"t1_throughput_ratio={fmt_ratio(r1)} "
              f"t{s['threads'][-1]}_throughput_ratio={fmt_ratio(rn)} "
              f"frames_per_sec_t{s['threads'][-1]}="
              f"{s['frames_per_sec'][-1]:.3e} "
              f"sums_exact={s['sums_exact']}")

    # Only the simd kernel ratios feed the gate (see module docstring).
    worst = None
    base_kernels = section_map(baseline, "simd_kernels")
    for k in current.get("simd_kernels", []):
        b = base_kernels.get(k["name"])
        if b is None:
            print(f"  BENCH_DIFF simd_kernel={k['name']} (new kernel) "
                  f"dispatch_eps={k['dispatch_eps']:.3e}")
            continue
        r = k["dispatch_eps"] / b["dispatch_eps"]
        worst = min(worst, r) if worst is not None else r
        print(f"  BENCH_DIFF simd_kernel={k['name']} "
              f"dispatch_throughput_ratio={fmt_ratio(r)} "
              f"speedup_vs_scalar={k['speedup']:.2f}x")

    if fail_below is not None and worst is not None and worst < fail_below:
        print(f"FAIL: worst throughput ratio {worst:.2f} "
              f"below threshold {fail_below}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
