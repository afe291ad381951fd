#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload round_wide --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the benchmark from
source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The metric names and units the benchmark prints are checked against
BENCHMARK.json. Exits non-zero when the build fails, a check fails or the
metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log = sys.stderr
    # The Makefile exists only after a configure that succeeded.
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=log, stderr=log)
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode == 2 or not lines:
        print("\n".join(lines), file=sys.stderr)
        return run.returncode or 2

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print(f"perfbench: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return 2
    print(run.stdout, end="")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
